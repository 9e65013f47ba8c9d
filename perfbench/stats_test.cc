// Tests of the benchmark's reporting rules: the tail guard on percentiles,
// stage estimates, histogram deltas, and failure-share accounting. Plain
// checks that stay on in every build type; exits non-zero on any failure.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/metrics.h"
#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test.cc:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void PercentileNeedsTenBeyond() {
  // p99 of 1..1000 is 990, with exactly ten samples beyond it.
  std::vector<double> v = Iota(1000);
  perfbench::Quantile q = perfbench::PercentileOf(&v, 0.99);
  CHECK(q.value == 990);
  CHECK(q.beyond == 10);
  CHECK(q.samples == 1000);
  CHECK(q.reported);

  // One sample fewer leaves nine beyond: not reported.
  v = Iota(999);
  q = perfbench::PercentileOf(&v, 0.99);
  CHECK(q.beyond == 9);
  CHECK(!q.reported);

  // The median of 20 has ten beyond it; of 19, nine.
  v = Iota(20);
  CHECK(perfbench::PercentileOf(&v, 0.5).reported);
  v = Iota(19);
  CHECK(!perfbench::PercentileOf(&v, 0.5).reported);

  // Samples tied with the quantile's value do not count as beyond it.
  v.assign(100, 7.0);
  q = perfbench::PercentileOf(&v, 0.5);
  CHECK(q.value == 7.0);
  CHECK(q.beyond == 0);
  CHECK(!q.reported);

  // Unsorted input, and no samples at all.
  v = {5, 1, 4, 2, 3};
  CHECK(perfbench::PercentileOf(&v, 0.5).value == 3);
  v.clear();
  q = perfbench::PercentileOf(&v, 0.5);
  CHECK(!q.reported);
  CHECK(q.samples == 0);
}

void StageEstimates() {
  CHECK(perfbench::Median({3, 1, 2}) == 2);
  CHECK(perfbench::Median({4, 1, 2, 3}) == 2.5);
  CHECK(perfbench::Median({}) == 0);
  // A stage's fastest repetition ignores how many repetitions were slowed.
  CHECK(perfbench::Fastest({0.11, 0.07, 0.11, 0.11}) == 0.07);
  CHECK(perfbench::Fastest({0.07, 0.07, 0.11, 0.07}) == 0.07);
  CHECK(perfbench::Fastest({}) == 0);
}

void FailureShare() {
  perfbench::Tally a;
  CHECK(a.FailShare() == 0);
  a.Record(true);
  a.Record(false);
  a.Record(true);
  a.Record(true);
  CHECK(a.attempted == 4);
  CHECK(a.failed == 1);
  CHECK(a.FailShare() == 0.25);

  perfbench::Tally b;
  b.Record(false);
  a.Merge(b);
  CHECK(a.attempted == 5);
  CHECK(a.failed == 2);
  CHECK(a.FailShare() == 0.4);
}

hydra::Histogram g_test_hist("perfbench_test/latency_us");

void HistogramDeltaAndTail() {
  for (int i = 0; i < 500; ++i) g_test_hist.Record(1000);
  const hydra::MetricsSnapshot before = hydra::MetricRegistry::Snapshot();
  // Only what lands between the snapshots counts: 990 fast, 10 slow.
  for (int i = 0; i < 990; ++i) g_test_hist.Record(10);
  for (int i = 0; i < 10; ++i) g_test_hist.Record(5000);
  const hydra::MetricsSnapshot after = hydra::MetricRegistry::Snapshot();
  const hydra::HistogramSnapshot d = perfbench::HistogramDelta(
      before, after, "perfbench_test/latency_us");
  CHECK(d.count == 1000);
  CHECK(d.sum == 990 * 10 + 10 * 5000);
  CHECK(perfbench::HistogramMean(d) == 59.9);
  const perfbench::Quantile p50 = perfbench::HistogramPercentile(d, 0.5);
  CHECK(p50.reported);
  CHECK(p50.value == 10);
  CHECK(p50.beyond == 10);
  // The p99 sits on the last fast sample; the ten slow ones lie beyond.
  const perfbench::Quantile p99 = perfbench::HistogramPercentile(d, 0.99);
  CHECK(p99.reported);
  CHECK(p99.beyond == 10);
  // p99.9 lands among the slow samples: nothing lies beyond it.
  const perfbench::Quantile p999 = perfbench::HistogramPercentile(d, 0.999);
  CHECK(!p999.reported);

  // A histogram absent from the snapshots is empty.
  const hydra::HistogramSnapshot none =
      perfbench::HistogramDelta(before, after, "perfbench_test/absent");
  CHECK(none.count == 0);
  CHECK(perfbench::HistogramMean(none) == 0);
}

}  // namespace

int main() {
  PercentileNeedsTenBeyond();
  StageEstimates();
  FailureShare();
  HistogramDeltaAndTail();
  if (failures == 0) std::printf("perfbench_stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
