// End-to-end benchmark of static regeneration and wire serving.
//
//   perfbench --workload <wlc|wls> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// One run: set up the client site (four times; the median is setup_s),
// make an untimed reference pass, then spend half of --seconds iterating
// the static pipeline and half serving the seeded scan mix over the wire.
// Every output is checked (see README.md). With --trace 1 the run also
// times each layer from here and reports per-layer metrics, the residual of
// every end-to-end metric, and the tracing overhead.
//
// The last line of standard output is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pipeline.h"
#include "serving.h"
#include "stats.h"
#include "util.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using hydra::TpcdsWorkloadKind;

// The repository's canonical WLc / WLs client sites (the figure benches'
// query and data seeds): the static inputs stay fixed so that a run's
// figures move with the code, not with the data.
const WorkloadDef kWorkloads[] = {
    {"wlc", 4.0, TpcdsWorkloadKind::kComplex, 131, 424242, 99},
    {"wls", 32.0, TpcdsWorkloadKind::kSimple, 60, 515151, 99},
};

constexpr int kSetupRepeats = 4;  // one per core on a 4-core machine
constexpr int kMaxThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && !args->work_dir.empty();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Metrics in output order, printed in the report and the result line.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    entries_.push_back({name, value, unit});
    std::printf("  %-34s %18.6f %-8s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  std::string Json() const {
    std::string out = "{";
    char buf[128];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      out += (i == 0 ? "\"" : ", \"") + entries_[i].name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + entries_[i].unit +
             "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string Count(uint64_t samples) {
  return "n=" + std::to_string(samples);
}

// Sample count, median and range of repeated whole-stage measurements.
std::string Spread(const std::vector<double>& values) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "n=%zu, median %.6g, range %.6g .. %.6g",
                values.size(), Median(values), Fastest(values),
                *std::max_element(values.begin(), values.end()));
  return buf;
}

// A quantile that must be reported; a run that cannot honour the tail rule
// has measured too little and fails rather than print a guess.
double Required(const Quantile& q, const std::string& what,
                std::vector<std::string>* failures) {
  if (!q.reported) {
    failures->push_back(what + " has only " + std::to_string(q.beyond) +
                        " samples beyond it (of " + std::to_string(q.samples) +
                        "); the run is too short");
  }
  return q.value;
}

std::string QuantileNote(const Quantile& q) {
  return Count(q.samples) + ", " + std::to_string(q.beyond) + " beyond";
}

template <typename T, typename F>
std::vector<double> Each(const std::vector<T>& items, F f) {
  std::vector<double> out;
  for (const T& item : items) out.push_back(f(item));
  return out;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

void PrintResidual(const char* metric, double end_to_end,
                   const std::vector<std::pair<const char*, double>>& layers) {
  double sum = 0;
  std::string names;
  for (const auto& [name, value] : layers) {
    sum += value;
    names += (names.empty() ? "" : " + ") + std::string(name);
  }
  std::printf("  %-20s %14.6f = %s %14.6f + residual %14.6f (%.1f%%)\n",
              metric, end_to_end, names.c_str(), sum, end_to_end - sum,
              end_to_end == 0 ? 0.0 : 100.0 * (end_to_end - sum) / end_to_end);
}

int Run(const Args& args) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (w.name == args.workload) def = &w;
  }
  if (def == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (wlc, wls)\n",
                 args.workload.c_str());
    return 2;
  }
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = std::clamp(nproc, 1, kMaxThreads);
  const bool traced = args.trace == 1;
  std::filesystem::create_directories(args.work_dir);

  const std::string stamp =
      std::string("{\"workload\": \"") + def->name +
      "\", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + std::to_string(args.seconds) +
      ", \"trace\": " + std::to_string(args.trace) +
      ", \"nproc\": " + std::to_string(nproc) +
      ", \"threads\": " + std::to_string(threads) +
      ", \"compiler\": \"" PERFBENCH_COMPILER
      "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
  std::printf("perfbench stamp %s\n", stamp.c_str());

  // --- set-up ---------------------------------------------------------------
  std::vector<double> setup_s;
  std::vector<double> datagen_s;
  std::optional<hydra::ClientSite> site;
  for (int i = 0; i < kSetupRepeats; ++i) {
    site.reset();
    RotateCpu pin(i);  // set-up is single-threaded
    double datagen = 0;
    Timer timer;
    site.emplace(BuildClientInputs(*def, &datagen));
    setup_s.push_back(timer.Seconds());
    datagen_s.push_back(datagen);
  }
  Pipeline pipeline(std::move(*site), threads, args.work_dir);
  site.reset();
  pipeline.Prepare();
  const std::vector<ScanClient> mix =
      MakeServeMix(pipeline.summary(), args.seed, threads);
  std::printf("serve mix (%d clients, closed loop):\n", threads);
  for (const ScanClient& c : mix) {
    uint64_t rows = 0;
    for (const ScanSpec& scan : c.scans) rows += scan.ref_rows;
    std::printf("  %s: %zu streams, %.0f rows each on average\n",
                c.label.c_str(), c.scans.size(),
                static_cast<double>(rows) / c.scans.size());
  }

  // --- static pipeline -------------------------------------------------------
  const double pipeline_budget = args.seconds / 2;
  std::vector<StageTimes> untraced;
  std::vector<LayerTimes> layers;
  Timer pipeline_timer;
  do {
    untraced.push_back(pipeline.RunUntraced());
    if (traced) layers.push_back(pipeline.RunTraced());
  } while (pipeline_timer.Seconds() < pipeline_budget);

  // --- serving ---------------------------------------------------------------
  const double serve_budget = args.seconds - pipeline_timer.Seconds();
  ServeConfig config;
  config.summary_path = pipeline.summary_path();
  config.threads = threads;
  config.seconds = std::max(0.5, traced ? serve_budget / 3 : serve_budget);
  const ServeRun wire = RunWire(mix, config);
  ServeRun wire_traced;
  ServeRun inproc;
  if (traced) {
    ServeConfig codec = config;
    codec.time_codec = true;
    wire_traced = RunWire(mix, codec);
    inproc = RunInProcess(mix, config);
  }

  // --- checks ----------------------------------------------------------------
  std::vector<std::string> failures = pipeline.failures();
  Tally tally = pipeline.tally();
  const ServeRun* runs[] = {&wire, &wire_traced, &inproc};
  for (const ServeRun* run : runs) {
    tally.Merge(run->tally);
    if (run->mismatched_streams > 0) {
      failures.push_back(std::to_string(run->mismatched_streams) +
                         " served streams differ from the TupleGenerator "
                         "reference");
    }
    if ((run == &wire || traced) && run->min_client_scans == 0) {
      failures.push_back("a serving client completed no stream");
    }
  }

  // --- report ----------------------------------------------------------------
  const Fidelity& fidelity = untraced.front().fidelity;
  std::printf("pipeline iterations: %zu untraced, %zu traced\n",
              untraced.size(), layers.size());
  std::printf("fidelity: %llu CCs, %llu exact, %llu negative, max rel err %g\n",
              static_cast<unsigned long long>(fidelity.ccs),
              static_cast<unsigned long long>(fidelity.exact),
              static_cast<unsigned long long>(fidelity.negative),
              fidelity.max_rel_err);
  std::printf("operations: %llu attempted, %llu failed, op_fail_share %g\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              tally.FailShare());
  std::printf("wire: %llu rows in %.3f s, %llu streams checked\n",
              static_cast<unsigned long long>(wire.rows), wire.wall_s,
              static_cast<unsigned long long>(wire.scans));
  for (const auto& [kind, samples] :
       {std::pair<const char*, std::vector<double>>{"full scans",
                                                    wire.full_scan_us},
        {"filtered scans", wire.filtered_us}}) {
    std::vector<double> sorted = samples;
    const Quantile k50 = PercentileOf(&sorted, 0.5);
    const Quantile k99 = PercentileOf(&sorted, 0.99);
    std::printf("  %-15s next_batch p50 %.1f us (%s), p99 %.1f us (%s)\n",
                kind, k50.value, QuantileNote(k50).c_str(), k99.value,
                QuantileNote(k99).c_str());
  }
  std::printf("  shared chunks: %llu fills, %llu hits, %llu catch-up\n",
              static_cast<unsigned long long>(wire.stats.shared_chunk_fills),
              static_cast<unsigned long long>(wire.stats.shared_chunk_hits),
              static_cast<unsigned long long>(wire.stats.catch_up_batches));

  std::vector<double> wire_latency = wire.next_batch_us;
  const Quantile p50 = PercentileOf(&wire_latency, 0.50);
  const Quantile p99 = PercentileOf(&wire_latency, 0.99);
  const auto stage = [&](double StageTimes::*field) {
    return Each(untraced, [&](const StageTimes& t) { return t.*field; });
  };
  const std::vector<double> aqp_collect = stage(&StageTimes::aqp_collect_s);
  const std::vector<double> summary = stage(&StageTimes::summary_s);
  const std::vector<double> materialize = stage(&StageTimes::materialize_s);
  const std::vector<double> dynamic_exec = stage(&StageTimes::dynamic_exec_s);
  const double aqp_collect_s = Fastest(aqp_collect);
  const double summary_s = Fastest(summary);
  const double materialize_s = Fastest(materialize);
  const double dynamic_exec_s = Fastest(dynamic_exec);
  const double scan_rows_per_s = wire.rows / wire.wall_s;

  MetricSet e2e;
  std::printf("end-to-end metrics:\n");
  e2e.Add("setup_s", Median(setup_s), "s", Spread(setup_s));
  e2e.Add("peak_rss_mb", PeakRssMb(), "MB");
  e2e.Add("aqp_collect_s", aqp_collect_s, "s", Spread(aqp_collect));
  e2e.Add("summary_s", summary_s, "s", Spread(summary));
  e2e.Add("materialize_s", materialize_s, "s", Spread(materialize));
  e2e.Add("dynamic_exec_s", dynamic_exec_s, "s", Spread(dynamic_exec));
  e2e.Add("cc_exact_share", fidelity.exact_share(), "share",
          Count(fidelity.ccs) + " CCs");
  e2e.Add("cc_max_rel_err", fidelity.max_rel_err, "ratio");
  e2e.Add("scan_rows_per_s", scan_rows_per_s, "rows/s");
  e2e.Add("next_batch_p50_us", Required(p50, "next_batch_p50_us", &failures),
          "us", QuantileNote(p50));
  e2e.Add("next_batch_p99_us", Required(p99, "next_batch_p99_us", &failures),
          "us", QuantileNote(p99));

  MetricSet per_layer;
  if (traced) {
    auto layer_fastest = [&](double LayerTimes::*field) {
      return Fastest(
          Each(layers, [&](const LayerTimes& l) { return l.*field; }));
    };
    const LayerTimes& last = layers.back();
    const std::string fastest = "fastest of " + Count(layers.size());
    const double datagen = Median(datagen_s);
    const double aqp_exec = layer_fastest(&LayerTimes::aqp_exec_s);
    const double cc_extract = layer_fastest(&LayerTimes::cc_extract_s);
    const double preprocess = layer_fastest(&LayerTimes::preprocess_s);
    const double formulate = layer_fastest(&LayerTimes::formulate_s);
    const double solve = layer_fastest(&LayerTimes::solve_s);
    const double integerize = layer_fastest(&LayerTimes::integerize_s);
    const double summary_build = layer_fastest(&LayerTimes::summary_build_s);
    const double summary_write = layer_fastest(&LayerTimes::summary_write_s);
    const double fill = layer_fastest(&LayerTimes::fill_s);
    const double storage_write = layer_fastest(&LayerTimes::storage_write_s);
    const double dynamic_engine = layer_fastest(&LayerTimes::dynamic_engine_s);

    std::vector<double> inproc_latency = inproc.next_batch_us;
    const Quantile in50 = PercentileOf(&inproc_latency, 0.50);
    const Quantile in99 = PercentileOf(&inproc_latency, 0.99);
    const auto hist = [&](const char* name) {
      return HistogramDelta(wire.before, wire.after, name);
    };
    const auto admission = hist("serve/admission_wait_us");
    const auto dispatch = hist("net/dispatch_wait_us");
    const auto handle = hist("net/handle_us");
    const auto write = hist("net/write_us");
    const auto server_next_batch = hist("serve/next_batch_us");
    const uint64_t hits = wire.stats.shared_chunk_hits;
    const uint64_t fills = wire.stats.shared_chunk_fills;
    const double full_batches = static_cast<double>(wire.full_scan_batches);
    const double mb = static_cast<double>(wire_traced.codec_bytes) / 1e6;

    std::printf("per-layer metrics:\n");
    per_layer.Add("workload.datagen_s", datagen, "s",
                  "median of " + Count(datagen_s.size()));
    per_layer.Add("engine.aqp_exec_s", aqp_exec, "s", fastest);
    per_layer.Add("engine.dynamic_exec_s", dynamic_engine, "s",
                  fastest);
    per_layer.Add("query.cc_extract_s", cc_extract, "s", fastest);
    per_layer.Add("hydra.preprocess_s", preprocess, "s", fastest);
    per_layer.Add("hydra.formulate_s", formulate, "s", fastest);
    per_layer.Add("hydra.summary_build_s", summary_build, "s",
                  fastest);
    per_layer.Add("hydra.summary_write_s", summary_write, "s",
                  fastest);
    per_layer.Add("hydra.summary_bytes",
                  static_cast<double>(last.summary_bytes), "bytes");
    per_layer.Add("hydra.fill_rows_per_s", last.fill_rows / fill, "rows/s",
                  fastest);
    per_layer.Add("partition.lp_vars", static_cast<double>(last.lp_vars),
                  "count");
    per_layer.Add("lp.solve_s", solve, "s", fastest);
    per_layer.Add("lp.iterations", static_cast<double>(last.lp_iterations),
                  "count");
    per_layer.Add("lp.integerize_s", integerize, "s", fastest);
    per_layer.Add("lp.warm_start_share", last.warm_start_share, "share");
    per_layer.Add("storage.write_s", storage_write, "s", fastest);
    per_layer.Add("storage.bytes_per_value", last.bytes_per_value, "bytes");
    per_layer.Add("serve.next_batch_inproc_p50_us",
                  Required(in50, "serve.next_batch_inproc_p50_us", &failures),
                  "us", QuantileNote(in50));
    per_layer.Add("serve.next_batch_inproc_p99_us",
                  Required(in99, "serve.next_batch_inproc_p99_us", &failures),
                  "us", QuantileNote(in99));
    per_layer.Add("serve.admission_wait_us", HistogramMean(admission), "us",
                  "mean, " + Count(admission.count));
    per_layer.Add("serve.shared_hit_ratio",
                  hits + fills == 0
                      ? 0.0
                      : static_cast<double>(hits) / (hits + fills),
                  "share", "hits / (hits + fills)");
    per_layer.Add("serve.fills_per_chunk",
                  full_batches == 0
                      ? 0.0
                      : (full_batches - hits) /
                            (full_batches / wire.full_scan_clients),
                  "count", "generation passes per chunk position");
    per_layer.Add("serve.shed_requests",
                  static_cast<double>(wire.stats.shed_requests), "count");
    per_layer.Add("serve.load_retries",
                  static_cast<double>(wire.stats.load_retries), "count");
    per_layer.Add("net.overhead_us", p50.value - in50.value, "us",
                  "wire p50 - in-process p50");
    per_layer.Add("net.dispatch_wait_us", HistogramMean(dispatch), "us",
                  "mean, " + Count(dispatch.count));
    per_layer.Add("net.handle_us", HistogramMean(handle), "us",
                  "mean, " + Count(handle.count));
    per_layer.Add("net.write_us", HistogramMean(write), "us",
                  "mean, " + Count(write.count));
    per_layer.Add("net.encode_us_per_mb",
                  mb == 0 ? 0.0 : wire_traced.encode_s * 1e6 / mb, "us/MB");
    per_layer.Add("net.decode_us_per_mb",
                  mb == 0 ? 0.0 : wire_traced.decode_s * 1e6 / mb, "us/MB");
    per_layer.Add("net.bytes_per_row",
                  wire_traced.codec_rows == 0
                      ? 0.0
                      : static_cast<double>(wire_traced.codec_bytes) /
                            wire_traced.codec_rows,
                  "bytes");

    // Each end-to-end metric against the sum of the layers that move it.
    std::printf("residuals (end-to-end = layers + residual):\n");
    PrintResidual("setup_s", Median(setup_s), {{"datagen", datagen}});
    PrintResidual("aqp_collect_s", aqp_collect_s,
                  {{"aqp_exec", aqp_exec}, {"cc_extract", cc_extract}});
    PrintResidual("summary_s", summary_s,
                  {{"preprocess", preprocess},
                   {"formulate", formulate},
                   {"solve", solve},
                   {"integerize", integerize},
                   {"summary_build", summary_build},
                   {"summary_write", summary_write}});
    PrintResidual("materialize_s", materialize_s,
                  {{"fill", fill}, {"storage_write", storage_write}});
    PrintResidual("dynamic_exec_s", dynamic_exec_s,
                  {{"engine_exec", dynamic_engine}});
    PrintResidual("next_batch_p50_us", p50.value,
                  {{"inproc_p50", in50.value},
                   {"net_overhead", p50.value - in50.value}});
    PrintResidual("next_batch_p99_us", p99.value, {{"inproc_p99", in99.value}});
    for (const auto* h : {&dispatch, &handle, &write}) {
      const Quantile q = HistogramPercentile(*h, 0.99);
      const std::string value =
          q.reported ? std::to_string(q.value) + " us" : "not reported";
      std::printf("  %-20s server %s p99 %s (%s)\n", "", h->name.c_str(),
                  value.c_str(), QuantileNote(q).c_str());
    }
    const double wire_mean = Mean(wire.next_batch_us);
    const double inproc_mean = Mean(inproc.next_batch_us);
    PrintResidual("next_batch mean us", wire_mean,
                  {{"inproc_mean", inproc_mean}});
    // Throughput as a time budget: every client-second went to round trips
    // (NextBatch plus session/cursor open and close) or to consuming rows.
    // The server's per-frame histograms cover the same round trips.
    const double client_s = wire.wall_s * static_cast<double>(mix.size());
    double round_trip_s = wire.other_rpc_s;
    for (const double us : wire.next_batch_us) round_trip_s += us / 1e6;
    PrintResidual("scan client-seconds", client_s,
                  {{"round trips", round_trip_s}});
    PrintResidual("  round trips s", round_trip_s,
                  {{"dispatch_wait", dispatch.sum / 1e6},
                   {"handle", handle.sum / 1e6},
                   {"write", write.sum / 1e6}});
    PrintResidual("    handle s", handle.sum / 1e6,
                  {{"serve/next_batch", server_next_batch.sum / 1e6}});
    std::printf("  %-20s no layer metric: cc_exact_share, cc_max_rel_err, "
                "peak_rss_mb\n", "");

    // Tracing overhead: traced minus untraced end-to-end time, over untraced.
    const double untraced_total =
        Fastest(Each(untraced, [](const StageTimes& t) { return t.total(); }));
    const double traced_total = Fastest(
        Each(layers, [](const LayerTimes& l) { return l.stages.total(); }));
    const double traced_mean = Mean(wire_traced.next_batch_us);
    std::printf("tracing overhead: pipeline %+.2f%% (%.4f s traced vs %.4f s), "
                "wire next_batch mean %+.2f%% (%.1f us vs %.1f us)\n",
                100.0 * (traced_total - untraced_total) / untraced_total,
                traced_total, untraced_total,
                100.0 * (traced_mean - wire_mean) / wire_mean, traced_mean,
                wire_mean);
  }

  const bool correct = failures.empty();
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("perfbench stamp %s\n", stamp.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed),
      (traced ? per_layer : e2e).Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <wlc|wls> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir>\n");
    return 2;
  }
  return perfbench::Run(args);
}
