// Statistics the benchmark reports: tail-guarded percentiles, medians,
// operation failure accounting, and before/after deltas of the library's
// metric-registry histograms.
//
// Reporting rule: a percentile is reported only when at least
// kMinSamplesBeyond samples lie strictly beyond it, so a p99 needs about a
// thousand samples and no tail figure ever rests on a handful of outliers.
// Every reported quantile carries its sample count.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace perfbench {

inline constexpr uint64_t kMinSamplesBeyond = 10;

// One quantile of a sample set. `reported` is false when fewer than
// kMinSamplesBeyond samples lie beyond it; `value` is then meaningless.
struct Quantile {
  bool reported = false;
  double value = 0;
  uint64_t samples = 0;
  uint64_t beyond = 0;
};

// Nearest-rank quantile of `samples`: the rank-ceil(q*n) order statistic.
// Sorts in place.
inline Quantile PercentileOf(std::vector<double>* samples, double q) {
  Quantile out;
  out.samples = samples->size();
  if (samples->empty()) return out;
  std::sort(samples->begin(), samples->end());
  const uint64_t n = samples->size();
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(n, std::max<uint64_t>(1, rank));
  out.value = (*samples)[rank - 1];
  // Ties with the chosen value are not "beyond" it.
  out.beyond = static_cast<uint64_t>(
      samples->end() -
      std::upper_bound(samples->begin(), samples->end(), out.value));
  out.reported = out.beyond >= kMinSamplesBeyond;
  return out;
}

// The middle value (or the mean of the middle two) of repeated measurements.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// The estimate a whole-stage timing reports: its fastest repetition in the
// run. On a machine shared with other tenants, a core flips between an
// uncontended and a contended speed (up to half as fast) within a fraction
// of a second, and how much of the time it is contended drifts over
// minutes; contention only ever adds time. The median of a run's
// repetitions tracks that drift, the fastest repetition does not. Latency
// distributions are not summarized this way: their percentiles are the
// metric.
inline double Fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

// Operations attempted and failed. A failed operation counts against the
// failure share whether or not it was retried.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  double FailShare() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// Samples recorded into histogram `name` between two registry snapshots.
// A histogram missing from `before` counts as empty there.
inline hydra::HistogramSnapshot HistogramDelta(
    const hydra::MetricsSnapshot& before, const hydra::MetricsSnapshot& after,
    const std::string& name) {
  hydra::HistogramSnapshot out;
  out.name = name;
  const hydra::HistogramSnapshot* b = nullptr;
  for (const auto& h : before.histograms) {
    if (h.name == name) b = &h;
  }
  for (const auto& h : after.histograms) {
    if (h.name != name) continue;
    out.sum = h.sum - (b != nullptr ? b->sum : 0);
    out.max = h.max;
    size_t j = 0;
    for (const auto& [index, count] : h.buckets) {
      uint64_t prior = 0;
      if (b != nullptr) {
        while (j < b->buckets.size() && b->buckets[j].first < index) ++j;
        if (j < b->buckets.size() && b->buckets[j].first == index) {
          prior = b->buckets[j].second;
        }
      }
      if (count > prior) {
        out.buckets.emplace_back(index, count - prior);
        out.count += count - prior;
      }
    }
  }
  return out;
}

inline double HistogramMean(const hydra::HistogramSnapshot& h) {
  return h.count == 0 ? 0.0
                      : static_cast<double>(h.sum) /
                            static_cast<double>(h.count);
}

// The histogram's quantile under the same tail rule. Samples sharing the
// quantile's bucket are not counted as beyond it.
inline Quantile HistogramPercentile(const hydra::HistogramSnapshot& h,
                                    double q) {
  Quantile out;
  out.samples = h.count;
  if (h.count == 0) return out;
  out.value = static_cast<double>(h.Percentile(q));
  uint64_t beyond = 0;
  for (const auto& [index, count] : h.buckets) {
    if (hydra::Histogram::BucketLower(index) > out.value) beyond += count;
  }
  out.beyond = beyond;
  out.reported = beyond >= kMinSamplesBeyond;
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
