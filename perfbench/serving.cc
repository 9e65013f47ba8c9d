#include "serving.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/logging.h"
#include "common/random.h"
#include "hydra/tuple_generator.h"
#include "net/client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "serve/server.h"
#include "util.h"

namespace perfbench {

using namespace hydra;

namespace {

constexpr int64_t kBatchRows = 8192;
// Seeded filters each selective client cycles through, one per scan, so a
// run's figures average over many filters rather than hinge on one.
constexpr int kFiltersPerClient = 16;
const char kSummaryId[] = "bench";

const RelationSummary& SummaryOf(const DatabaseSummary& summary, int rel) {
  for (const RelationSummary& r : summary.relations) {
    if (r.relation == rel) return r;
  }
  HYDRA_CHECK_MSG(false, "no summary for relation " << rel);
  return summary.relations.front();
}

// Selective filters of a relation: every shortest value window [lo, hi) of
// one data attribute that holds between 5% and 30% of the relation's tuples.
// Summary values cluster on region boundaries, so a single value may hold
// most of a relation; the windows are therefore enumerated from the
// summary's exact value distribution.
std::vector<Atom> WindowCandidates(const RelationSummary& rs,
                                   const std::vector<int>& attrs) {
  std::vector<Atom> candidates;
  for (const int attr : attrs) {
    int column = -1;
    for (size_t j = 0; j < rs.attr_indices.size(); ++j) {
      if (rs.attr_indices[j] == attr) column = static_cast<int>(j);
    }
    HYDRA_CHECK(column >= 0);
    std::map<Value, int64_t> by_value;
    int64_t total = 0;
    for (const SolutionRow& row : rs.rows) {
      by_value[row.values[column]] += row.count;
      total += row.count;
    }
    const std::vector<std::pair<Value, int64_t>> counts(by_value.begin(),
                                                        by_value.end());
    size_t end = 0;
    int64_t share = 0;  // tuples in counts[begin, end)
    for (size_t begin = 0; begin < counts.size(); ++begin) {
      while (end < counts.size() && 20 * share < total) {
        share += counts[end++].second;
      }
      if (20 * share >= total && 10 * share <= 3 * total) {
        candidates.push_back(
            AtomRange(attr, counts[begin].first, counts[end - 1].first + 1));
      }
      share -= counts[begin].second;
    }
  }
  return candidates;
}

// Fills in the stream a correct server must produce for each of `scans`
// (all over `relation`), generated straight from the summary in one pass
// and filtered row by row with each predicate's own Eval.
void HashReferences(const TupleGenerator& gen, int relation, int width,
                    std::vector<ScanSpec>* scans) {
  const int64_t rows = static_cast<int64_t>(gen.RowCount(relation));
  std::vector<StreamHash> hashes;
  for (const ScanSpec& scan : *scans) hashes.emplace_back(scan.width);
  std::vector<std::vector<Value>> kept(scans->size());
  RowBlock block;
  RowBlock out;
  Row row(width);
  for (int64_t b = 0; b < rows; b += 65536) {
    block.Reset(width);
    gen.FillBlockRange(relation, b, std::min(rows, b + 65536), &block);
    for (auto& k : kept) k.clear();
    for (int64_t r = 0; r < block.num_rows(); ++r) {
      block.CopyRowTo(r, row.data());
      for (size_t s = 0; s < scans->size(); ++s) {
        const CursorSpec& spec = (*scans)[s].cursor;
        if (!spec.filter.Eval(row.data())) continue;
        if (spec.projection.empty()) {
          kept[s].insert(kept[s].end(), row.begin(), row.end());
        } else {
          for (const int c : spec.projection) kept[s].push_back(row[c]);
        }
      }
    }
    for (size_t s = 0; s < scans->size(); ++s) {
      const int w = (*scans)[s].width;
      out.Reset(w);
      out.AppendRowMajor(kept[s].data(),
                         static_cast<int64_t>(kept[s].size()) / w);
      hashes[s].Add(out);
    }
  }
  for (size_t s = 0; s < scans->size(); ++s) {
    (*scans)[s].ref_hash = hashes[s].Digest();
    (*scans)[s].ref_rows = hashes[s].rows();
  }
}

// Start line for the client threads, so connection set-up stays outside the
// measured window.
class StartGate {
 public:
  explicit StartGate(int parties) : waiting_(parties) {}

  // Blocks until Open(); returns the measured window's deadline.
  Clock::time_point Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    --waiting_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
    return deadline_;
  }
  // Waits for every party, then releases them with a deadline `seconds`
  // from now.
  void Open(double seconds) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return waiting_ == 0; });
    deadline_ = DeadlineAfter(seconds);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_;
  bool open_ = false;
  Clock::time_point deadline_;
};

// Cache-line aligned: each client thread updates its own result per batch.
struct alignas(64) ClientResult {
  uint64_t rows = 0;
  std::vector<double> next_batch_us;
  Tally tally;
  uint64_t scans = 0;
  uint64_t mismatched = 0;
  uint64_t batches = 0;
  double other_rpc_s = 0;
  double encode_s = 0;
  double decode_s = 0;
  uint64_t codec_bytes = 0;
  uint64_t codec_rows = 0;
};

// One closed-loop client: open a session and cursor, drain it batch by
// batch, check the stream, close, repeat until the deadline. A scan in
// progress at the deadline runs to completion. `Api` is RegenServer or
// NetClient, which share the typed serve API.
template <typename Api>
void ScanLoop(Api& api, const ScanClient& client, Clock::time_point deadline,
              bool time_codec, ClientResult* out) {
  std::string encoded;
  RowBlock decoded;
  OpenSessionRequest request;
  request.summary_id = kSummaryId;
  size_t scan_index = 0;
  while (Clock::now() < deadline) {
    Timer open_timer;
    auto session = api.OpenSession(request);
    out->tally.Record(session.ok());
    if (!session.ok()) return;
    const ScanSpec& scan = client.scans[scan_index++ % client.scans.size()];
    auto cursor = api.OpenCursor(*session, scan.cursor);
    out->tally.Record(cursor.ok());
    out->other_rpc_s += open_timer.Seconds();
    if (!cursor.ok()) return;
    StreamHash hash(scan.width);
    RowBlock block;
    bool complete = false;
    for (;;) {
      Timer timer;
      auto batch = api.NextBatch(*session, *cursor, std::move(block));
      const double us = timer.Seconds() * 1e6;
      out->tally.Record(batch.ok());
      if (!batch.ok()) break;
      out->next_batch_us.push_back(us);
      if (batch->done) {
        complete = true;
        break;
      }
      const RowBlock& rows = batch->rows;
      out->rows += static_cast<uint64_t>(rows.num_rows());
      ++out->batches;
      hash.Add(rows);
      if (time_codec) {
        encoded.clear();
        Timer encode_timer;
        AppendRowBlock(rows, &encoded);
        out->encode_s += encode_timer.Seconds();
        WireReader reader(encoded);
        Timer decode_timer;
        const Status decode = ReadRowBlock(&reader, &decoded);
        out->decode_s += decode_timer.Seconds();
        HYDRA_CHECK_MSG(decode.ok(), decode.ToString());
        out->codec_bytes += encoded.size();
        out->codec_rows += static_cast<uint64_t>(rows.num_rows());
      }
      block = std::move(batch->rows);
    }
    Timer close_timer;
    out->tally.Record(api.CloseSession(*session).ok());
    out->other_rpc_s += close_timer.Seconds();
    if (!complete) return;
    ++out->scans;
    if (hash.Digest() != scan.ref_hash || hash.rows() != scan.ref_rows) {
      ++out->mismatched;
    }
  }
}

ServeOptions MakeServeOptions(const ServeConfig& config) {
  ServeOptions options;
  options.num_threads = config.threads;
  // Wire serving amortizes its per-round-trip cost over large batches;
  // batch boundaries never change stream content.
  options.batch_rows = kBatchRows;
  return options;
}

ServeRun Collect(const std::vector<ScanClient>& mix,
                 std::vector<ClientResult>& results, double wall_s) {
  ServeRun run;
  run.wall_s = wall_s;
  for (size_t i = 0; i < mix.size(); ++i) {
    ClientResult& r = results[i];
    run.rows += r.rows;
    run.next_batch_us.insert(run.next_batch_us.end(), r.next_batch_us.begin(),
                             r.next_batch_us.end());
    run.tally.Merge(r.tally);
    run.scans += r.scans;
    run.min_client_scans =
        i == 0 ? r.scans : std::min(run.min_client_scans, r.scans);
    run.mismatched_streams += r.mismatched;
    auto& by_kind = mix[i].full_scan ? run.full_scan_us : run.filtered_us;
    by_kind.insert(by_kind.end(), r.next_batch_us.begin(),
                   r.next_batch_us.end());
    if (mix[i].full_scan) {
      run.full_scan_batches += r.batches;
      ++run.full_scan_clients;
    }
    run.other_rpc_s += r.other_rpc_s;
    run.encode_s += r.encode_s;
    run.decode_s += r.decode_s;
    run.codec_bytes += r.codec_bytes;
    run.codec_rows += r.codec_rows;
  }
  return run;
}

}  // namespace

std::vector<ScanClient> MakeServeMix(const DatabaseSummary& summary,
                                     uint64_t seed, int clients) {
  const Schema& schema = summary.schema;
  TupleGenerator gen(summary);
  std::vector<int> by_size(schema.num_relations());
  std::iota(by_size.begin(), by_size.end(), 0);
  std::stable_sort(by_size.begin(), by_size.end(), [&](int a, int b) {
    return gen.RowCount(a) > gen.RowCount(b);
  });
  Rng rng(seed);
  std::vector<ScanClient> mix;
  for (int i = 0; i < clients; ++i) {
    ScanClient c;
    c.full_scan = i % 2 == 0;
    const int rel = by_size[c.full_scan ? 0 : 1 + i / 2];
    const Relation& relation = schema.relation(rel);
    if (c.full_scan) {
      ScanSpec scan;
      scan.cursor.relation = rel;
      scan.width = relation.num_attributes();
      c.scans.push_back(std::move(scan));
      c.label = "full scans of " + relation.name();
    } else {
      const std::vector<int> data = relation.DataAttrIndices();
      HYDRA_CHECK(!data.empty());
      const std::vector<Atom> windows =
          WindowCandidates(SummaryOf(summary, rel), data);
      HYDRA_CHECK_MSG(!windows.empty(), "no value window of "
                                            << relation.name()
                                            << " holds 5-30% of its tuples");
      for (int k = 0; k < kFiltersPerClient; ++k) {
        ScanSpec scan;
        const Atom& window = windows[rng.NextBounded(windows.size())];
        const int other = data[rng.NextBounded(data.size())];
        scan.cursor.relation = rel;
        scan.cursor.filter = PredicateOf(window);
        scan.cursor.projection = {relation.PrimaryKeyIndex(), window.column};
        if (other != window.column) scan.cursor.projection.push_back(other);
        scan.width = static_cast<int>(scan.cursor.projection.size());
        c.scans.push_back(std::move(scan));
      }
      c.label = "filtered, projected scans of " + relation.name();
    }
    HashReferences(gen, rel, relation.num_attributes(), &c.scans);
    mix.push_back(std::move(c));
  }
  return mix;
}

namespace {

// Runs client(i, gate, &result) for every client of the mix on its own
// thread, opens the gate for the measured window, and gathers the results
// with the registry and server counters around the window.
template <typename ClientFn>
ServeRun RunClients(const std::vector<ScanClient>& mix, double seconds,
                    const RegenServer& server, ClientFn client) {
  const int n = static_cast<int>(mix.size());
  std::vector<ClientResult> results(n);
  StartGate gate(n);
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] { client(i, gate, &results[i]); });
  }
  const MetricsSnapshot before = MetricRegistry::Snapshot();
  gate.Open(seconds);
  Timer wall;
  for (std::thread& t : threads) t.join();
  ServeRun run = Collect(mix, results, wall.Seconds());
  run.before = before;
  run.after = MetricRegistry::Snapshot();
  run.stats = server.stats();
  return run;
}

}  // namespace

ServeRun RunWire(const std::vector<ScanClient>& mix,
                 const ServeConfig& config) {
  RegenServer server(MakeServeOptions(config));
  HYDRA_CHECK_OK(server.RegisterSummary(kSummaryId, config.summary_path));
  NetServerOptions net_options;
  net_options.worker_threads = config.threads;
  NetServer net(&server, net_options);
  HYDRA_CHECK_OK(net.Start());
  ServeRun run = RunClients(
      mix, config.seconds, server,
      [&](int i, StartGate& gate, ClientResult* result) {
        NetClient client;
        const Status connected = client.Connect("127.0.0.1", net.port());
        const Clock::time_point deadline = gate.Arrive();
        result->tally.Record(connected.ok());
        if (connected.ok()) {
          ScanLoop(client, mix[i], deadline, config.time_codec, result);
        }
      });
  net.Stop();
  return run;
}

ServeRun RunInProcess(const std::vector<ScanClient>& mix,
                      const ServeConfig& config) {
  RegenServer server(MakeServeOptions(config));
  HYDRA_CHECK_OK(server.RegisterSummary(kSummaryId, config.summary_path));
  return RunClients(mix, config.seconds, server,
                    [&](int i, StartGate& gate, ClientResult* result) {
                      ScanLoop(server, mix[i], gate.Arrive(),
                               /*time_codec=*/false, result);
                    });
}

}  // namespace perfbench
