// Small shared pieces of the benchmark: a steady-clock timer, the stream
// hash every served and reference row stream is checked with, and a file
// hash for materialized tables.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/row_block.h"

namespace perfbench {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

using Clock = std::chrono::steady_clock;

inline Clock::time_point DeadlineAfter(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// Pins the calling thread to one CPU of its affinity set, picked round-robin
// by `turn`, until destruction, then restores the set. Single-threaded stages
// run under it so that a run's repeated measurements sample every core in
// turn: on a machine shared with other tenants each core's speed drifts on
// its own, and a stage the scheduler kept on one core would report that
// core's drift. Threads must not be spawned under it (they would inherit
// the single-CPU set).
class RotateCpu {
 public:
  explicit RotateCpu(int turn) {
    if (pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
      return;
    }
    const int count = CPU_COUNT(&saved_);
    if (count <= 1) return;
    int skip = turn % count;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
      return;
    }
  }
  ~RotateCpu() {
    if (pinned_) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
  }

  RotateCpu(const RotateCpu&) = delete;
  RotateCpu& operator=(const RotateCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// Order-sensitive hash of a row stream, independent of how the stream is cut
// into blocks: each column keeps four multiply-xor lanes indexed by the
// row's global position, so consecutive rows hash on independent dependency
// chains (a full scan of millions of rows costs milliseconds, not the
// consumer's whole time budget).
class StreamHash {
 public:
  explicit StreamHash(int num_columns)
      : lanes_(static_cast<size_t>(num_columns) * 4, kSeed) {}

  void Add(const hydra::RowBlock& block) {
    const int64_t n = block.num_rows();
    for (int c = 0; c < block.num_columns(); ++c) {
      const hydra::Value* v = block.Column(c);
      uint64_t* lane = &lanes_[static_cast<size_t>(c) * 4];
      for (int64_t r = 0; r < n; ++r) {
        uint64_t& h = lane[(rows_ + static_cast<uint64_t>(r)) & 3];
        h = (h ^ static_cast<uint64_t>(v[r])) * kPrime;
      }
    }
    rows_ += static_cast<uint64_t>(n);
  }

  uint64_t rows() const { return rows_; }

  uint64_t Digest() const {
    uint64_t h = kSeed ^ rows_;
    for (const uint64_t lane : lanes_) h = (h ^ lane) * kPrime;
    return h;
  }

 private:
  static constexpr uint64_t kSeed = 14695981039346656037ull;
  static constexpr uint64_t kPrime = 1099511628211ull;

  std::vector<uint64_t> lanes_;
  uint64_t rows_ = 0;
};

// Hash of a file's bytes (8-byte words on four lanes, tail bytes folded in).
// Returns false when the file cannot be read.
inline bool HashFile(const std::string& path, uint64_t* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t lanes[4] = {1, 2, 3, 4};
  uint64_t total = 0;
  std::vector<uint64_t> buf(1 << 16);
  for (;;) {
    const size_t got =
        std::fread(buf.data(), 1, buf.size() * sizeof(uint64_t), f);
    const size_t words = got / sizeof(uint64_t);
    for (size_t i = 0; i < words; ++i) {
      uint64_t& h = lanes[i & 3];
      h = (h ^ buf[i]) * kPrime;
    }
    for (size_t i = words * sizeof(uint64_t); i < got; ++i) {
      lanes[0] = (lanes[0] ^ reinterpret_cast<const uint8_t*>(buf.data())[i]) *
                 kPrime;
    }
    total += got;
    if (got < buf.size() * sizeof(uint64_t)) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  *out = (((lanes[0] * 31 + lanes[1]) * 31 + lanes[2]) * 31 + lanes[3]) ^
         total;
  return ok;
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
