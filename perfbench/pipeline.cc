#include "pipeline.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "engine/executor.h"
#include "hydra/formulator.h"
#include "hydra/preprocessor.h"
#include "hydra/regenerator.h"
#include "hydra/summary_generator.h"
#include "hydra/summary_io.h"
#include "hydra/tuple_generator.h"
#include "lp/integerize.h"
#include "lp/simplex.h"
#include "util.h"
#include "workload/datagen.h"

namespace perfbench {

using namespace hydra;

namespace {

constexpr double kMinStageSeconds = 0.05;
constexpr int kMaxStageRepeats = 16;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Fidelity FidelityOf(const SimilarityReport& report) {
  Fidelity f;
  f.ccs = report.entries.size();
  for (const SimilarityEntry& e : report.entries) {
    if (e.signed_relative_error == 0) ++f.exact;
    if (e.signed_relative_error < 0) ++f.negative;
    f.max_rel_err = std::max(f.max_rel_err, std::fabs(e.signed_relative_error));
  }
  return f;
}

}  // namespace

ClientSite BuildClientInputs(const WorkloadDef& def, double* datagen_seconds) {
  Schema schema = TpcdsSchema(def.scale_factor);
  std::vector<Query> queries =
      TpcdsWorkload(schema, def.kind, def.num_queries, def.query_seed);
  Timer timer;
  auto db =
      GenerateClientDatabase(schema, DataGenOptions{.seed = def.data_seed});
  *datagen_seconds = timer.Seconds();
  HYDRA_CHECK_MSG(db.ok(), db.status().ToString());
  ClientSite site{schema, std::move(*db), std::move(queries), {}, {}};
  return site;
}

Pipeline::Pipeline(ClientSite site, int threads, std::string work_dir)
    : site_(std::move(site)),
      threads_(threads),
      work_dir_(std::move(work_dir)),
      summary_path_(work_dir_ + "/reference.summary"),
      iter_summary_path_(work_dir_ + "/iteration.summary"),
      table_dir_(work_dir_ + "/tables") {
  std::filesystem::create_directories(table_dir_);
}

bool Pipeline::Expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
  return ok;
}

std::vector<CardinalityConstraint> Pipeline::CollectCcs(
    std::vector<AnnotatedQueryPlan>* aqps, LayerTimes* traced) {
  // The client's parser emits one |R| size CC per relation from metadata,
  // then one CC per annotated plan edge (BuildClientSite's order).
  std::vector<CardinalityConstraint> ccs;
  for (int r = 0; r < site_.schema.num_relations(); ++r) {
    ccs.push_back(RelationSizeConstraint(
        r, site_.database.RowCount(r),
        "|" + site_.schema.relation(r).name() + "|"));
  }
  Executor executor(site_.schema, ExecOptions{.num_threads = threads_});
  for (const Query& q : site_.queries) {
    Timer exec_timer;
    auto aqp = executor.Execute(q, site_.database);
    if (traced != nullptr) traced->aqp_exec_s += exec_timer.Seconds();
    tally_.Record(aqp.ok());
    if (!Expect(aqp.ok(), "AQP collection of " + q.name + ": " +
                              aqp.status().ToString())) {
      continue;
    }
    Timer extract_timer;
    std::vector<CardinalityConstraint> more = AqpToConstraints(*aqp);
    if (traced != nullptr) traced->cc_extract_s += extract_timer.Seconds();
    ccs.insert(ccs.end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
    if (aqps != nullptr) aqps->push_back(*std::move(aqp));
  }
  return ccs;
}

std::string Pipeline::BuildSummary(
    const std::vector<CardinalityConstraint>& ccs, const std::string& path,
    DatabaseSummary* summary, LayerTimes* traced) {
  HydraOptions options;
  options.num_threads = 1;
  if (traced == nullptr) {
    auto result = HydraRegenerator(site_.schema, options).Regenerate(ccs);
    tally_.Record(result.ok());
    if (!Expect(result.ok(), "Regenerate: " + result.status().ToString())) {
      return {};
    }
    *summary = std::move(result->summary);
  } else {
    // Regenerate(), rebuilt from the public pieces it composes so that each
    // layer is timed on its own: views are formulated in order, grouped
    // into warm-start chains by LP signature, and each chain is solved in
    // view order seeding every phase I from the previous member's basis.
    Timer pre_timer;
    Preprocessor pre(site_.schema);
    auto views = pre.BuildViews();
    tally_.Record(views.ok());
    if (!Expect(views.ok(), "BuildViews: " + views.status().ToString())) {
      return {};
    }
    auto view_ccs = pre.MapConstraints(*views, ccs);
    tally_.Record(view_ccs.ok());
    if (!Expect(view_ccs.ok(),
                "MapConstraints: " + view_ccs.status().ToString())) {
      return {};
    }
    traced->preprocess_s += pre_timer.Seconds();

    const int num_views = static_cast<int>(views->size());
    std::vector<ViewLp> lps(num_views);
    for (int v = 0; v < num_views; ++v) {
      Timer timer;
      auto lp = FormulateViewLp((*views)[v], (*view_ccs)[v]);
      traced->formulate_s += timer.Seconds();
      tally_.Record(lp.ok());
      if (!Expect(lp.ok(), "FormulateViewLp: " + lp.status().ToString())) {
        return {};
      }
      lps[v] = *std::move(lp);
      traced->lp_vars += static_cast<uint64_t>(lps[v].problem.num_vars());
    }

    std::vector<std::vector<int>> chains;
    std::map<std::tuple<int, int, uint64_t>, int> chain_of;
    for (int v = 0; v < num_views; ++v) {
      const auto key = std::make_tuple(lps[v].problem.num_constraints(),
                                       lps[v].problem.num_vars(),
                                       lps[v].problem.NumNonZeros());
      const auto [it, inserted] =
          chain_of.emplace(key, static_cast<int>(chains.size()));
      if (inserted) chains.emplace_back();
      chains[it->second].push_back(v);
    }

    SummaryGenerator generator(site_.schema);
    std::vector<ViewSummary> view_summaries(num_views);
    int warm_started = 0;
    for (const std::vector<int>& chain : chains) {
      SimplexBasis prev;
      for (const int v : chain) {
        SimplexOptions simplex = options.simplex;
        SimplexBasis exported;
        simplex.warm_start = prev.empty() ? nullptr : &prev;
        simplex.export_basis = &exported;
        Timer solve_timer;
        auto solution = SolveFeasibility(lps[v].problem, simplex);
        traced->solve_s += solve_timer.Seconds();
        tally_.Record(solution.ok());
        if (!Expect(solution.ok(),
                    "SolveFeasibility: " + solution.status().ToString())) {
          return {};
        }
        traced->lp_iterations += static_cast<uint64_t>(solution->iterations);
        if (solution->warm_started) ++warm_started;

        Timer integerize_timer;
        IntegerizeResult integers = IntegerizeSolution(
            lps[v].problem, solution->values, options.integerize_passes);
        traced->integerize_s += integerize_timer.Seconds();

        Timer build_timer;
        auto view_summary =
            generator.BuildViewSummary((*views)[v], lps[v], integers.values);
        traced->summary_build_s += build_timer.Seconds();
        tally_.Record(view_summary.ok());
        if (!Expect(view_summary.ok(),
                    "BuildViewSummary: " + view_summary.status().ToString())) {
          return {};
        }
        view_summaries[v] = *std::move(view_summary);
        prev = std::move(exported);
      }
    }
    traced->warm_start_share =
        num_views == 0 ? 0.0 : static_cast<double>(warm_started) / num_views;

    Timer build_timer;
    auto database =
        generator.BuildDatabaseSummary(*views, std::move(view_summaries));
    traced->summary_build_s += build_timer.Seconds();
    tally_.Record(database.ok());
    if (!Expect(database.ok(),
                "BuildDatabaseSummary: " + database.status().ToString())) {
      return {};
    }
    *summary = *std::move(database);
  }

  Timer write_timer;
  auto bytes = WriteSummary(*summary, path);
  if (traced != nullptr) {
    traced->summary_write_s += write_timer.Seconds();
    traced->summary_bytes = bytes.ok() ? *bytes : 0;
  }
  tally_.Record(bytes.ok());
  if (!Expect(bytes.ok(), "WriteSummary: " + bytes.status().ToString())) {
    return {};
  }
  return ReadFileBytes(path);
}

std::map<std::string, uint64_t> Pipeline::HashTables(const std::string& dir) {
  std::map<std::string, uint64_t> hashes;
  for (int r = 0; r < site_.schema.num_relations(); ++r) {
    const std::string name = site_.schema.relation(r).name() + ".tbl";
    uint64_t h = 0;
    Expect(HashFile(dir + "/" + name, &h), "cannot read " + name);
    hashes[name] = h;
  }
  return hashes;
}

void Pipeline::CheckTables(const std::string& dir) {
  const auto hashes = HashTables(dir);
  for (const auto& [name, h] : hashes) {
    Expect(h == ref_table_hashes_[name],
           name + " differs from the sequential materialization");
  }
  // Unlink rather than let the next iteration truncate: truncating freshly
  // written files makes ext4 flush them to disk (auto_da_alloc), and that
  // write-back would land inside the next iteration's timing.
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

Fidelity Pipeline::ReExecute(const DatabaseSummary& summary,
                             LayerTimes* traced) {
  TupleGenerator generator(summary);
  const ExecOptions exec{.num_threads = threads_};
  if (traced == nullptr) {
    auto report = MeasureVolumetricSimilarity(site_, generator, exec);
    tally_.Record(report.ok());
    if (!Expect(report.ok(), "MeasureVolumetricSimilarity: " +
                                 report.status().ToString())) {
      return {};
    }
    return FidelityOf(*report);
  }
  // MeasureVolumetricSimilarity, with the engine's share timed per query.
  SimilarityReport report;
  auto add = [&](uint64_t want, uint64_t got) {
    SimilarityEntry e;
    e.client_cardinality = want;
    e.vendor_cardinality = got;
    e.signed_relative_error =
        (static_cast<double>(got) - static_cast<double>(want)) /
        std::max<double>(1.0, static_cast<double>(want));
    report.entries.push_back(e);
  };
  for (int r = 0; r < site_.schema.num_relations(); ++r) {
    add(site_.database.RowCount(r), generator.RowCount(r));
  }
  Executor executor(site_.schema, exec);
  for (size_t q = 0; q < site_.queries.size(); ++q) {
    Timer timer;
    auto aqp = executor.Execute(site_.queries[q], generator);
    traced->dynamic_engine_s += timer.Seconds();
    tally_.Record(aqp.ok());
    if (!Expect(aqp.ok(), "re-execution of " + site_.queries[q].name + ": " +
                              aqp.status().ToString())) {
      continue;
    }
    const AnnotatedQueryPlan& client = site_.aqps[q];
    if (!Expect(aqp->steps.size() == client.steps.size(),
                "plan shape mismatch for " + site_.queries[q].name)) {
      continue;
    }
    for (size_t s = 0; s < client.steps.size(); ++s) {
      add(client.steps[s].cardinality, aqp->steps[s].cardinality);
    }
  }
  return FidelityOf(report);
}

void Pipeline::Prepare() {
  site_.aqps.clear();
  site_.ccs = CollectCcs(&site_.aqps, nullptr);
  ref_ccs_ = site_.ccs;
  ref_summary_bytes_ =
      BuildSummary(ref_ccs_, summary_path_, &summary_, nullptr);

  // The traced build must produce Regenerate()'s bytes exactly.
  DatabaseSummary traced_summary;
  LayerTimes scratch;
  const std::string traced_bytes =
      BuildSummary(ref_ccs_, iter_summary_path_, &traced_summary, &scratch);
  Expect(!ref_summary_bytes_.empty() && traced_bytes == ref_summary_bytes_,
         "stage-by-stage summary differs from Regenerate()'s");

  // Sequential reference materialization.
  const std::string ref_dir = work_dir_ + "/reference_tables";
  std::filesystem::create_directories(ref_dir);
  auto bytes = MaterializeToDisk(summary_, ref_dir,
                                 GenerationOptions{.num_threads = 1});
  tally_.Record(bytes.ok());
  Expect(bytes.ok(), "sequential MaterializeToDisk: " +
                         bytes.status().ToString());
  ref_table_hashes_ = HashTables(ref_dir);
  std::filesystem::remove_all(ref_dir);

  ref_fidelity_ = ReExecute(summary_, nullptr);
  Expect(ref_fidelity_.negative == 0,
         std::to_string(ref_fidelity_.negative) +
             " CCs regenerated with fewer rows than the client's");
  prepared_ = true;
}

void Pipeline::CheckSummaryBytes(const std::string& bytes) {
  Expect(bytes == ref_summary_bytes_,
         "summary bytes differ from the reference Regenerate()");
}

void Pipeline::CheckIteration(const std::vector<CardinalityConstraint>& ccs,
                              const Fidelity& fidelity) {
  bool same_ccs = ccs.size() == ref_ccs_.size();
  for (size_t i = 0; same_ccs && i < ccs.size(); ++i) {
    same_ccs = ccs[i].cardinality == ref_ccs_[i].cardinality &&
               ccs[i].label == ref_ccs_[i].label;
  }
  Expect(same_ccs, "AQP collection produced different CCs");
  Expect(fidelity.negative == 0,
         std::to_string(fidelity.negative) +
             " CCs regenerated with fewer rows than the client's");
  Expect(fidelity == ref_fidelity_, "re-execution fidelity changed");
}

StageTimes Pipeline::RunUntraced() {
  HYDRA_CHECK(prepared_);
  StageTimes t;
  Timer collect_timer;
  std::vector<CardinalityConstraint> ccs = CollectCcs(nullptr, nullptr);
  t.aqp_collect_s = collect_timer.Seconds();

  // The short stages (the summary build of wls, materialization of wlc)
  // repeat within the iteration, each repetition checked, until
  // kMinStageSeconds of them have run, and the iteration keeps its fastest
  // repetition: the run's fastest then rests on enough samples.
  DatabaseSummary summary;
  double spent = 0;
  for (int rep = 0; rep < kMaxStageRepeats && spent < kMinStageSeconds;
       ++rep) {
    RotateCpu pin(iteration_++);
    Timer timer;
    const std::string bytes =
        BuildSummary(ccs, iter_summary_path_, &summary, nullptr);
    const double seconds = timer.Seconds();
    spent += seconds;
    t.summary_s = rep == 0 ? seconds : std::min(t.summary_s, seconds);
    CheckSummaryBytes(bytes);
  }

  spent = 0;
  for (int rep = 0; rep < kMaxStageRepeats && spent < kMinStageSeconds;
       ++rep) {
    Timer timer;
    auto written = MaterializeToDisk(
        summary, table_dir_, GenerationOptions{.num_threads = threads_});
    const double seconds = timer.Seconds();
    spent += seconds;
    t.materialize_s = rep == 0 ? seconds : std::min(t.materialize_s, seconds);
    tally_.Record(written.ok());
    Expect(written.ok(), "MaterializeToDisk: " + written.status().ToString());
    CheckTables(table_dir_);
  }

  Timer dynamic_timer;
  t.fidelity = ReExecute(summary, nullptr);
  t.dynamic_exec_s = dynamic_timer.Seconds();

  CheckIteration(ccs, t.fidelity);
  return t;
}

LayerTimes Pipeline::RunTraced() {
  HYDRA_CHECK(prepared_);
  LayerTimes l;
  Timer collect_timer;
  std::vector<CardinalityConstraint> ccs = CollectCcs(nullptr, &l);
  l.stages.aqp_collect_s = collect_timer.Seconds();

  DatabaseSummary summary;
  std::string bytes;
  {
    RotateCpu pin(iteration_++);
    Timer summary_timer;
    bytes = BuildSummary(ccs, iter_summary_path_, &summary, &l);
    l.stages.summary_s = summary_timer.Seconds();
  }

  Timer materialize_timer;
  auto written = MaterializeToDisk(summary, table_dir_,
                                   GenerationOptions{.num_threads = threads_});
  l.stages.materialize_s = materialize_timer.Seconds();
  tally_.Record(written.ok());
  Expect(written.ok(), "MaterializeToDisk: " + written.status().ToString());

  // The generation half of materialization, on its own: the same relations
  // cut into the same shards, filled in memory on a pool of the same width.
  TupleGenerator generator(summary);
  struct Shard {
    int relation;
    int64_t begin;
    int64_t end;
  };
  std::vector<Shard> shards;
  uint64_t values = 0;
  const int64_t shard_rows = GenerationOptions{}.shard_rows;
  for (int r = 0; r < site_.schema.num_relations(); ++r) {
    const int64_t rows = static_cast<int64_t>(generator.RowCount(r));
    for (int64_t b = 0; b < rows; b += shard_rows) {
      shards.push_back({r, b, std::min(rows, b + shard_rows)});
    }
    l.fill_rows += static_cast<uint64_t>(rows);
    values += static_cast<uint64_t>(rows) *
              static_cast<uint64_t>(site_.schema.relation(r).num_attributes());
  }
  {
    ThreadPool pool(threads_);
    std::vector<RowBlock> scratch(shards.size());
    Timer fill_timer;
    ParallelFor(pool, static_cast<int>(shards.size()), [&](int i) {
      const Shard& s = shards[i];
      RowBlock& block = scratch[i];
      const int width = site_.schema.relation(s.relation).num_attributes();
      for (int64_t b = s.begin; b < s.end; b += 8192) {
        block.Reset(width);
        generator.FillBlockRange(s.relation, b, std::min(s.end, b + 8192),
                                 &block);
      }
    });
    l.fill_s = fill_timer.Seconds();
  }
  l.storage_write_s = l.stages.materialize_s - l.fill_s;
  l.bytes_per_value =
      values == 0 ? 0.0
                  : static_cast<double>(written.ok() ? *written : 0) / values;

  Timer dynamic_timer;
  l.stages.fidelity = ReExecute(summary, &l);
  l.stages.dynamic_exec_s = dynamic_timer.Seconds();

  CheckTables(table_dir_);
  CheckSummaryBytes(bytes);
  CheckIteration(ccs, l.stages.fidelity);
  return l;
}

}  // namespace perfbench
