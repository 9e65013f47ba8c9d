// The static regeneration pipeline of one TPC-DS workload, driven stage by
// stage through the library's public API: AQP collection on the client
// database, summary construction (Regenerate + WriteSummary), materialization
// to disk, and re-execution of the workload over a TupleGenerator.
//
// Two ways to run one iteration:
//  * RunUntraced: one timer per end-to-end stage around the public entry
//    points a user calls (Executor, HydraRegenerator::Regenerate,
//    MaterializeToDisk, MeasureVolumetricSimilarity).
//  * RunTraced: the same stages decomposed into the calls each one makes,
//    timed from here (per-query Execute vs AqpToConstraints; preprocess,
//    formulate, solve, integerize, summary build and write; parallel
//    in-memory fill vs disk write), with Regenerate's view chaining rebuilt
//    from its public pieces.
//
// Every iteration is checked against the reference pass Prepare() makes:
// identical summary bytes, materialized tables hashing equal to a
// sequential materialization, and no CC with negative error.

#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hydra/summary.h"
#include "stats.h"
#include "workload/tpcds.h"
#include "workload/workload_runner.h"

namespace perfbench {

// A TPC-DS client site definition: schema scale, query workload, and the
// client database's generator seed.
struct WorkloadDef {
  std::string name;
  double scale_factor = 1;
  hydra::TpcdsWorkloadKind kind = hydra::TpcdsWorkloadKind::kSimple;
  int num_queries = 0;
  uint64_t query_seed = 0;
  uint64_t data_seed = 0;
};

// Builds the client site's inputs (schema, queries, client database) — the
// benchmark's set-up. `datagen_seconds` receives the time spent in
// GenerateClientDatabase alone.
hydra::ClientSite BuildClientInputs(const WorkloadDef& def,
                                    double* datagen_seconds);

// Fidelity of one re-execution over generated tuples.
struct Fidelity {
  uint64_t ccs = 0;
  uint64_t exact = 0;
  uint64_t negative = 0;
  double max_rel_err = 0;

  double exact_share() const {
    return ccs == 0 ? 0.0 : static_cast<double>(exact) / ccs;
  }
  bool operator==(const Fidelity& o) const {
    return ccs == o.ccs && exact == o.exact && negative == o.negative &&
           max_rel_err == o.max_rel_err;
  }
};

// End-to-end stage times of one iteration (of a repeated stage, its fastest
// repetition).
struct StageTimes {
  double aqp_collect_s = 0;
  double summary_s = 0;
  double materialize_s = 0;
  double dynamic_exec_s = 0;
  Fidelity fidelity;

  double total() const {
    return aqp_collect_s + summary_s + materialize_s + dynamic_exec_s;
  }
};

// Per-layer times and counts of one traced iteration.
struct LayerTimes {
  StageTimes stages;  // wall time of each traced stage
  double aqp_exec_s = 0;
  double cc_extract_s = 0;
  double preprocess_s = 0;
  double formulate_s = 0;
  double solve_s = 0;
  double integerize_s = 0;
  double summary_build_s = 0;
  double summary_write_s = 0;
  uint64_t summary_bytes = 0;
  uint64_t lp_vars = 0;
  uint64_t lp_iterations = 0;
  double warm_start_share = 0;
  double fill_s = 0;  // parallel in-memory FillBlockRange of every relation
  uint64_t fill_rows = 0;
  double storage_write_s = 0;  // materialize_s minus fill_s
  double bytes_per_value = 0;
  double dynamic_engine_s = 0;
};

class Pipeline {
 public:
  // `threads` caps every engine and generation pool; the summary stage
  // solves its views sequentially (as Figure 13 measures LP time), so its
  // layers add up to its wall time, on a different core each iteration
  // (RotateCpu). Scratch files go under `work_dir`.
  Pipeline(hydra::ClientSite site, int threads, std::string work_dir);

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  // Reference pass (untimed): collects the AQPs, regenerates, writes the
  // summary, materializes sequentially, and checks the traced summary
  // build against Regenerate(). Also warms the client database's columnar
  // mirror, which every later AQP collection would otherwise pay once.
  void Prepare();

  StageTimes RunUntraced();
  LayerTimes RunTraced();

  // Path of the reference summary file (the serving phase's input).
  const std::string& summary_path() const { return summary_path_; }
  const hydra::DatabaseSummary& summary() const { return summary_; }

  // Check failures seen so far, and every public call attempted/failed.
  const std::vector<std::string>& failures() const { return failures_; }
  const Tally& tally() const { return tally_; }

 private:
  // Records one library call's outcome; a failure is also a failed check.
  bool Expect(bool ok, const std::string& what);
  std::vector<hydra::CardinalityConstraint> CollectCcs(
      std::vector<hydra::AnnotatedQueryPlan>* aqps, LayerTimes* traced);
  // Regenerate (or the traced stage-by-stage build) + WriteSummary into
  // `path`; returns the file's bytes.
  std::string BuildSummary(const std::vector<hydra::CardinalityConstraint>& ccs,
                           const std::string& path,
                           hydra::DatabaseSummary* summary,
                           LayerTimes* traced);
  std::map<std::string, uint64_t> HashTables(const std::string& dir);
  void CheckTables(const std::string& dir);
  Fidelity ReExecute(const hydra::DatabaseSummary& summary, LayerTimes* traced);
  void CheckSummaryBytes(const std::string& bytes);
  void CheckIteration(const std::vector<hydra::CardinalityConstraint>& ccs,
                      const Fidelity& fidelity);

  hydra::ClientSite site_;
  const int threads_;
  const std::string work_dir_;
  const std::string summary_path_;
  const std::string iter_summary_path_;
  const std::string table_dir_;

  hydra::DatabaseSummary summary_;
  std::vector<hydra::CardinalityConstraint> ref_ccs_;
  std::string ref_summary_bytes_;
  std::map<std::string, uint64_t> ref_table_hashes_;
  Fidelity ref_fidelity_;
  bool prepared_ = false;
  int iteration_ = 0;  // picks the core the sequential summary stage runs on

  std::vector<std::string> failures_;
  Tally tally_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
