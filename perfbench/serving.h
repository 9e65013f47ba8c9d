// The serving mix: a closed loop of scan clients, each waiting for its reply
// before sending the next request, streaming cursors from one summary.
//
// Client 0 and 2 run full scans of the summary's largest relation — a scan
// group whose members share generated chunks, bound by bytes on the wire.
// Client 1 and 3 run selective filtered and projected scans of the next two
// largest relations — bound by admission and predicate work, small frames.
// The seed draws the selective clients' scans: sixteen each, cycled one per
// session, each with its own filter attribute, value window (5-30% of the
// tuples) and projection. At most `clients` (capped by the caller at the
// machine's core count) clients run.
//
// RunWire drives NetClients against NetServer -> RegenServer on loopback;
// RunInProcess drives the same mix against RegenServer directly. Every
// completed stream is checked against a reference hashed from a
// TupleGenerator over the same summary.

#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "hydra/summary.h"
#include "serve/serve_api.h"
#include "serve/serve_options.h"
#include "stats.h"

namespace perfbench {

// One stream a client asks for, with the reference it must hash equal to.
struct ScanSpec {
  hydra::CursorSpec cursor;
  int width = 0;  // output columns
  uint64_t ref_hash = 0;
  uint64_t ref_rows = 0;
};

// A client cycles through its scans, one per session.
struct ScanClient {
  std::string label;
  bool full_scan = false;
  std::vector<ScanSpec> scans;
};

std::vector<ScanClient> MakeServeMix(const hydra::DatabaseSummary& summary,
                                     uint64_t seed, int clients);

struct ServeRun {
  double wall_s = 0;
  uint64_t rows = 0;
  std::vector<double> next_batch_us;  // every NextBatch, as the client saw it
  std::vector<double> full_scan_us;  // the same, split by client kind
  std::vector<double> filtered_us;
  double other_rpc_s = 0;  // session/cursor open and close round trips
  Tally tally;
  uint64_t scans = 0;                 // completed, checked streams
  uint64_t min_client_scans = 0;      // of the client that completed fewest
  uint64_t mismatched_streams = 0;
  uint64_t full_scan_batches = 0;
  int full_scan_clients = 0;
  hydra::ServeStats stats;            // the server's counters at the end
  hydra::MetricsSnapshot before;      // registry around the measured loop
  hydra::MetricsSnapshot after;
  // Traced wire runs: the codec run over every received block.
  double encode_s = 0;
  double decode_s = 0;
  uint64_t codec_bytes = 0;
  uint64_t codec_rows = 0;
};

struct ServeConfig {
  std::string summary_path;
  int threads = 1;  // server pool and network workers
  double seconds = 1;
  bool time_codec = false;  // wire only
};

ServeRun RunWire(const std::vector<ScanClient>& mix, const ServeConfig& config);
ServeRun RunInProcess(const std::vector<ScanClient>& mix,
                      const ServeConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
