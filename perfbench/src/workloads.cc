// Each run: generate the inputs from the seed, precompute oracle answers,
// then drive one durable primary SpcService, a WAL-shipping ReplicaService
// and an mmap MappedReaderService through three phases:
//
//   setup   from the start of the process: inputs, SpcService::Open
//           (build + first checkpoint), first ShipOnce,
//           ReplicaService::Open, first PublishSnapshot, MappedReaderService
//           ::Open, first answered read                  -> setup_s
//   reads   one closed-loop client calling SpcService::Query for a window
//           split into blocks; every answer is checked   -> read_qps, rss_mb
//   writes  rounds of durable writes, each followed by a read-your-writes
//           read; each round ends by shipping the WAL to the replica and
//           publishing a snapshot to the mapped reader   -> insert/delete,
//           fresh reads, replica_visible_ms, publish_adopt_ms, WAL bytes
//
// and ends with Checkpoint() and a clean reopen checked against the oracle.
// Every option is left at its shipped default except those an entry point
// requires: the durability directory, the replica's transport with its
// tailer off, and kSnapshot on the mapped reader. Shipping, stepping and
// adoption are driven synchronously, so the WAL flusher is the only
// program thread running in the background during a timed window.
//
// With tracing on, the same run also records spans around every call,
// replays the write stream on a twin DynamicSpcIndex, and times each
// layer's public functions directly; it reports the per-layer metrics.
#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <thread>
#include <time.h>
#include <unistd.h>

#include "dspc/api/mapped_reader_service.h"
#include "dspc/api/replica_service.h"
#include "dspc/api/spc_service.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/persist/replication.h"
#include "dspc/persist/snapshot_publisher.h"
#include "inputs.h"
#include "oracle.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

enum class Shape { kRmat, kRoad };

/// The graph shape decides the rest: the road graph gets uniform reads and
/// closures, the rmat graph Zipf reads and the hybrid stream.
struct Config {
  const char* name;
  Shape shape;
};

// Sizes: rmat scale 11 (2,048 vertices, ~12.9 K edges); road 48 x 48. Both
// indexes fit in a 2 MiB L2 and build sequentially under the default
// options. The toy sizes (smoke mode) keep every phase and check.
constexpr unsigned kRmatScale = 11, kToyRmatScale = 9;
constexpr size_t kRoadSide = 48, kToyRoadSide = 12;
constexpr double kZipfExponent = 1.1;
constexpr size_t kHybridInsertsPerDelete = 10;
constexpr uint64_t kRoadLayoutSeed = 0x726f6164;  // "road"
constexpr uint64_t kRmatGraphSeed = 0x726d6174;   // "rmat"
constexpr double kReadShare = 0.7;  // share of --seconds in the read window

const Config kConfigs[] = {
    {"road-mixed", Shape::kRoad},
    {"social-churn", Shape::kRmat},
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  return (*std::max_element(v.begin(), v.begin() + mid) + hi) / 2;
}

/// Nearest-rank percentile (q in [0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + rank, v.end());
  return v[rank];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double RssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

/// CPU time of the whole process (all threads), seconds.
double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// CPU time of the calling thread, seconds.
double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Time the hypervisor gave this machine's CPUs to other guests since boot,
/// in clock ticks summed over CPUs (the steal column of /proc/stat).
uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t field[8] = {};
  in >> cpu;
  for (uint64_t& f : field) in >> f;
  return field[7];
}

uint64_t WalBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && e.path().extension() == ".log") {
      total += e.file_size();
    }
  }
  return total;
}

/// A read-window pair with its oracle answer.
struct PoolPair {
  Vertex s, t;
  uint32_t dist;
  uint64_t count;
};

/// Reads draw from this: a pool of Zipf pairs, or (uniform) a set of BFS
/// sources with full answer rows, paired with uniform targets.
struct ReadSet {
  std::vector<PoolPair> pool;
  std::vector<Vertex> sources;
  std::vector<std::vector<uint32_t>> dist;
  std::vector<std::vector<uint64_t>> count;
  size_t wide = 0;     ///< answers whose true count is >= 2^64
  size_t answers = 0;  ///< answers precomputed

  PoolPair Draw(Rng& rng, size_t n) const {
    if (!pool.empty()) return pool[rng.Below(pool.size())];
    const size_t i = rng.Below(sources.size());
    const auto t = static_cast<Vertex>(rng.Below(n));
    PoolPair p{sources[i], t, dist[i][t], count[i][t]};
    if (rng.Next() & 1) std::swap(p.s, p.t);
    return p;
  }
};

ReadSet BuildReadSet(const Config& cfg, const OracleGraph& g,
                     const std::vector<EdgeUV>& edges, bool toy, Rng& rng) {
  ReadSet rs;
  const size_t n = g.NumVertices();
  Counter counter(n);
  std::vector<Answer> row;
  if (cfg.shape == Shape::kRoad) {
    const size_t k = toy ? 16 : 512;
    for (size_t i = 0; i < k; ++i) {
      const auto s = static_cast<Vertex>(rng.Below(n));
      counter.FromSource(g, s, &row);
      rs.sources.push_back(s);
      rs.dist.emplace_back(n);
      rs.count.emplace_back(n);
      for (size_t v = 0; v < n; ++v) {
        rs.dist.back()[v] = row[v].dist;
        rs.count.back()[v] = row[v].Low64();
        rs.wide += row[v].wide;
      }
      rs.answers += n;
    }
    return rs;
  }
  // Both endpoints Zipf over degree rank; answers by one BFS per distinct
  // better-ranked endpoint.
  const std::vector<Vertex> ranking = DegreeRanking(n, edges);
  const ZipfRanks zipf(n, kZipfExponent);
  const size_t pool = toy ? 1024 : size_t{1} << 15;
  std::vector<std::pair<size_t, size_t>> ranks(pool);
  for (auto& [a, b] : ranks) {
    a = zipf.Sample(rng);
    b = zipf.Sample(rng);
  }
  std::vector<size_t> order(pool);
  for (size_t i = 0; i < pool; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return std::min(ranks[x].first, ranks[x].second) <
           std::min(ranks[y].first, ranks[y].second);
  });
  rs.pool.resize(pool);
  size_t current = SIZE_MAX;
  for (const size_t i : order) {
    const auto [a, b] = ranks[i];
    const size_t hub = std::min(a, b);
    if (hub != current) {
      counter.FromSource(g, ranking[hub], &row);
      current = hub;
    }
    const Answer& ans = row[ranking[std::max(a, b)]];
    rs.pool[i] = PoolPair{ranking[a], ranking[b], ans.dist, ans.Low64()};
    rs.wide += ans.wide;
  }
  rs.answers = pool;
  return rs;
}

/// Benchmark-owned host probe: full BFS counts over a fixed 64 x 64 grid.
/// One instance per thread; the grid is shared read-only.
class HostProbe {
 public:
  HostProbe() : counter_(Grid().NumVertices()) {}
  double RunMs() {
    const int64_t t0 = NowNs();
    for (int i = 0; i < 4; ++i) counter_.FromSource(Grid(), 0, &row_);
    return static_cast<double>(NowNs() - t0) / 1e6;
  }

 private:
  static const OracleGraph& Grid() {
    static const OracleGraph grid = [] {
      Rng unused(1);
      return OracleGraph(64 * 64, RoadEdges(64, 64, 0, 1, unused));
    }();
    return grid;
  }
  Counter counter_;
  std::vector<Answer> row_;
};

/// One write of the stream.
struct Write {
  bool insert;
  Vertex u, v;
};

/// Answer and property checks: counts every failure and keeps the first
/// five as notes.
class Checks {
 public:
  void Fail(const std::string& what) {
    ++failures_;
    if (failures_ <= 5) notes_.push_back("check failed: " + what);
  }
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void ExpectAnswer(const char* who, Vertex s, Vertex t, const Answer& want,
                    const dspc::SpcResult& got) {
    if (!Matches(want, got.dist, got.count)) {
      Fail(std::string(who) + " (" + std::to_string(s) + "," +
           std::to_string(t) + ") = (" + std::to_string(got.dist) + "," +
           std::to_string(got.count) + "), oracle (" +
           std::to_string(want.dist) + "," + std::to_string(want.Low64()) +
           ")");
    }
  }
  uint64_t failures() const { return failures_; }
  std::vector<std::string>& notes() { return notes_; }

 private:
  uint64_t failures_ = 0;
  std::vector<std::string> notes_;
};

struct ReadWindow {
  std::vector<double> block_qps;
  std::vector<double> block_p50_us;
  std::vector<double> block_p99_us;
  std::vector<double> probe_ms;  ///< host probe per block
  double cpu_share = 0;          ///< client thread CPU time over the window
  uint64_t reads = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::string first_wrong;
};

/// One closed-loop client on SpcService::Query, on the calling thread.
/// Every answer is compared with its oracle answer and generation; one read
/// in 32 is timed. The window is split into blocks; per-block throughput
/// and latency percentiles, leaving out the first `warm_blocks` (throughput
/// still climbs for about a second after setup).
ReadWindow RunReadWindow(const dspc::SpcService& svc, const ReadSet& rs,
                         double seconds, double block_s, uint64_t generation,
                         uint64_t seed, size_t warm_blocks) {
  const auto blocks = std::max<size_t>(warm_blocks + 1, static_cast<size_t>(seconds / block_s));
  const auto block_ns = static_cast<int64_t>(block_s * 1e9);
  std::vector<uint64_t> ops(blocks, 0);
  std::vector<std::vector<double>> lat_us(blocks);
  std::vector<double> probe_ms(blocks, 0);  // 0 if the client missed the block
  ReadWindow w;
  const size_t n = svc.NumVertices();
  Rng rng(DeriveSeed(seed, 100));
  HostProbe probe;
  size_t probed = SIZE_MAX;
  const double cpu0 = ThreadCpuS();
  const int64_t start = NowNs();
  const int64_t end = start + block_ns * static_cast<int64_t>(blocks);
  for (;;) {
    const int64_t now = NowNs();
    if (now >= end) break;
    const size_t block = static_cast<size_t>((now - start) / block_ns);
    if (block != probed) {
      probe_ms[block] = probe.RunMs();
      probed = block;
    }
    for (int i = 0; i < 32; ++i) {
      const PoolPair p = rs.Draw(rng, n);
      int64_t t0 = 0;
      if (i == 0) t0 = NowNs();
      auto r = svc.Query(p.s, p.t);
      if (i == 0) lat_us[block].push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (!r.ok()) {
        ++w.failed;
        continue;
      }
      if (r->result.dist != p.dist || r->result.count != p.count ||
          r->generation != generation) {
        if (w.wrong++ == 0) {
          w.first_wrong = "read (" + std::to_string(p.s) + "," + std::to_string(p.t) +
                          ") = (" + std::to_string(r->result.dist) + "," +
                          std::to_string(r->result.count) + ") gen " +
                          std::to_string(r->generation);
        }
      }
    }
    ops[block] += 32;
  }
  w.cpu_share = (ThreadCpuS() - cpu0) / (block_s * static_cast<double>(blocks));

  for (size_t b = 0; b < blocks; ++b) {
    w.reads += ops[b];
    if (b < warm_blocks) continue;
    if (probe_ms[b] > 0) w.probe_ms.push_back(probe_ms[b]);
    w.block_qps.push_back(static_cast<double>(ops[b]) / block_s);
    w.block_p50_us.push_back(Percentile(lat_us[b], 0.50));
    w.block_p99_us.push_back(Percentile(lat_us[b], 0.99));
  }
  return w;
}

/// The write stream of one round, drawn against the oracle's current graph.
std::vector<Write> NextRound(const Config& cfg, const OracleGraph& g, Rng& rng) {
  std::vector<Write> round;
  const size_t n = g.NumVertices();
  if (cfg.shape == Shape::kRoad) {
    // Close a road, then reopen it: the graph is back to its original
    // shape after every round.
    const EdgeUV e = g.RandomEdge(rng);
    round.push_back({false, e.u, e.v});
    round.push_back({true, e.u, e.v});
    return round;
  }
  // The paper's hybrid stream: random non-edge insertions and random
  // existing-edge deletions, 10:1. All drawn before any applies, so each
  // insert is a non-edge and the delete an edge at the time they apply.
  std::vector<std::pair<Vertex, Vertex>> picked;
  while (picked.size() < kHybridInsertsPerDelete) {
    const auto u = static_cast<Vertex>(rng.Below(n));
    const auto v = static_cast<Vertex>(rng.Below(n));
    if (u == v || g.HasEdge(u, v)) continue;
    const bool dup = std::any_of(picked.begin(), picked.end(), [&](auto p) {
      return (p.first == u && p.second == v) || (p.first == v && p.second == u);
    });
    if (!dup) picked.emplace_back(u, v);
  }
  for (const auto& [u, v] : picked) round.push_back({true, u, v});
  const EdgeUV e = g.RandomEdge(rng);
  round.push_back({false, e.u, e.v});
  return round;
}

struct TwinStats {
  std::vector<double> inc_ms, dec_ms, refresh_ms;
  double inc_hubs = 0, inc_visited = 0, inc_changes = 0;
  double dec_hubs = 0, dec_visited = 0, dec_changes = 0, dec_sr = 0, dec_r = 0;
};

const Config* FindConfig(const std::string& name) {
  for (const Config& c : kConfigs) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Config& c : kConfigs) out.push_back(c.name);
    return out;
  }();
  return names;
}

bool RunWorkload(const RunOptions& opt, RunResult* out) {
  const Config* cfg = FindConfig(opt.workload);
  if (cfg == nullptr) {
    out->notes.push_back("unknown workload '" + opt.workload + "'");
    return false;
  }
  Checks checks;
  Tracer tracer(opt.trace);
  HostProbe probe;
  std::vector<double> write_probe_ms;
  auto& att = out->attempted;
  auto& failed = out->failed;
  auto fail_status = [&](const char* what, const dspc::Status& st) {
    ++failed;
    if (failed <= 5) out->notes.push_back(std::string(what) + ": " + st.ToString());
  };

  // --- inputs ---------------------------------------------------------------
  std::vector<EdgeUV> edges;
  size_t n = 0;
  if (cfg->shape == Shape::kRmat) {
    // One fixed graph, like the road layout below: across R-MAT draws at
    // scale 13 the build time and read throughput differed by 10-20%.
    Rng graph_rng(kRmatGraphSeed);
    const unsigned scale = opt.toy ? kToyRmatScale : kRmatScale;
    n = size_t{1} << scale;
    edges = RmatEdges(scale, 8 * n, graph_rng);
  } else {
    // One fixed shortcut layout: across layouts the degree order, and with
    // it label sizes (+-10%) and query cost (+-20%), swing more than a
    // bound allows, so the seed drives the reads and closures only.
    Rng graph_rng(kRoadLayoutSeed);
    const size_t side = opt.toy ? kToyRoadSide : kRoadSide;
    n = side * side;
    edges = RoadEdges(side, side, 0.05, 6, graph_rng);
  }
  OracleGraph oracle(n, edges);
  Counter counter(n);
  Rng write_rng(DeriveSeed(opt.seed, 3));
  std::vector<dspc::Edge> lib_edges;
  lib_edges.reserve(edges.size());
  for (const EdgeUV& e : edges) lib_edges.push_back(dspc::Edge{e.u, e.v});
  dspc::Graph graph(n, lib_edges);
  out->notes.push_back(std::string(cfg->name) + ": " + std::to_string(n) +
                       " vertices, " + std::to_string(edges.size()) + " edges");

  const std::string run_dir = opt.work_dir + "/" + cfg->name + "-" +
                              std::to_string(opt.seed) + "-" +
                              std::to_string(::getpid());
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  // Declared before every service so it runs after they are destroyed,
  // on early returns too.
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } remove_run_dir{run_dir};
  const std::string primary_dir = run_dir + "/primary";
  const std::string pub_dir = run_dir + "/publish";

  // --- setup ------------------------------------------------------------------
  // setup_s runs from the start of the process to the first answered read;
  // the oracle's read answers are computed after it.
  const uint64_t steal_at_setup = StealTicks();
  Tracer::Scope setup_span(&tracer, "setup");
  std::unique_ptr<dspc::SpcService> svc;
  {
    Tracer::Scope s(&tracer, "open");
    auto opened = dspc::SpcService::Open(std::move(graph), {.dir = primary_dir});
    if (!opened.ok()) {
      out->notes.push_back("SpcService::Open: " + opened.status().ToString());
      return false;
    }
    svc = std::move(opened).value();
  }
  dspc::InProcessTransport transport;
  std::unique_ptr<dspc::WalShipper> shipper;
  std::unique_ptr<dspc::ReplicaService> replica;
  std::unique_ptr<dspc::SnapshotPublisher> publisher;
  std::unique_ptr<dspc::MappedReaderService> mapped;
  {
    Tracer::Scope s(&tracer, "ship");
    auto sh = svc->NewShipper(&transport);
    if (!sh.ok()) {
      out->notes.push_back("NewShipper: " + sh.status().ToString());
      return false;
    }
    shipper = std::move(sh).value();
    if (auto st = shipper->ShipOnce(); !st.ok()) {
      out->notes.push_back("ShipOnce: " + st.ToString());
      return false;
    }
  }
  {
    Tracer::Scope s(&tracer, "replica_open");
    dspc::ReplicaOptions replica_options;
    replica_options.transport = &transport;
    replica_options.start_tailer = false;
    auto r = dspc::ReplicaService::Open(replica_options);
    if (!r.ok()) {
      out->notes.push_back("ReplicaService::Open: " + r.status().ToString());
      return false;
    }
    replica = std::move(r).value();
  }
  {
    Tracer::Scope s(&tracer, "publish");
    auto p = dspc::SnapshotPublisher::Open(pub_dir);
    if (!p.ok()) {
      out->notes.push_back("SnapshotPublisher::Open: " + p.status().ToString());
      return false;
    }
    publisher = std::move(p).value();
    if (auto st = svc->PublishSnapshot(publisher.get()); !st.ok()) {
      out->notes.push_back("PublishSnapshot: " + st.ToString());
      return false;
    }
  }
  {
    Tracer::Scope s(&tracer, "mapped_open");
    auto m = dspc::MappedReaderService::Open(pub_dir);
    if (!m.ok()) {
      out->notes.push_back("MappedReaderService::Open: " + m.status().ToString());
      return false;
    }
    mapped = std::move(m).value();
  }
  const uint64_t gen0 = svc->Generation();
  Rng first_rng(DeriveSeed(opt.seed, 6));
  const auto first_s = static_cast<Vertex>(first_rng.Below(n));
  const auto first_t = static_cast<Vertex>(first_rng.Below(n));
  dspc::StatusOr<dspc::QueryResponse> first = [&] {
    Tracer::Scope s(&tracer, "first_read");
    return svc->Query(first_s, first_t);
  }();
  setup_span.End();
  const double setup_s =
      opt.process_start_ns > 0
          ? static_cast<double>(NowNs() - opt.process_start_ns) / 1e9
          : setup_span.Seconds();
  const double setup_cpu_s = ProcessCpuS();
  const uint64_t setup_steal = StealTicks() - steal_at_setup;
  ++att;
  if (!first.ok()) {
    fail_status("first read", first.status());
  } else {
    checks.ExpectAnswer("first read", first_s, first_t,
                        counter.Pair(oracle, first_s, first_t), first->result);
  }
  Rng read_rng(DeriveSeed(opt.seed, 2));
  const ReadSet reads = BuildReadSet(*cfg, oracle, edges, opt.toy, read_rng);

  // --- reads ------------------------------------------------------------------
  const double block_s = opt.toy ? 0.1 : 0.5;
  const double read_s = std::max(block_s, opt.seconds * kReadShare);
  const ReadWindow rw = RunReadWindow(
      *svc, reads, read_s, block_s, gen0, opt.seed, 2);
  att += rw.reads;
  failed += rw.failed;
  // Read here, not right after setup, and after handing free heap pages
  // back: without both, the resident set of the same inputs took one of
  // two values from run to run (41.0 or 45.3-46.1 MiB on the road graph),
  // as if freed memory were kept or not by the allocator.
  malloc_trim(0);
  const double rss_mb = RssMiB();
  if (rw.wrong > 0) {
    checks.Fail(std::to_string(rw.wrong) + " wrong reads, first " + rw.first_wrong);
  }

  // --- per-layer probes of the read path (traced run only) -----------------
  std::vector<Metric>& pl = out->per_layer;
  if (opt.trace) {
    const dspc::MetricsSnapshot m = svc->Metrics();
    const double lookups = static_cast<double>(m.pair_cache_hits + m.pair_cache_misses);
    pl.push_back({"core.pair_cache.hit_rate",
                  lookups == 0 ? 0.0 : static_cast<double>(m.pair_cache_hits) / lookups,
                  "ratio"});
    const size_t probes = opt.toy ? 2000 : 100000;
    std::vector<PoolPair> pairs(probes);
    Rng prng(DeriveSeed(opt.seed, 4));
    for (auto& p : pairs) p = reads.Draw(prng, n);
    const dspc::DynamicSpcIndex& engine = svc->engine();
    const auto pin = engine.PinSnapshot();
    std::vector<double> svc_ns, flat_ns, idx_ns;
    uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
      int64_t t0 = NowNs();
      for (const PoolPair& p : pairs) sink += svc->Query(p.s, p.t)->result.count;
      int64_t t1 = NowNs();
      svc_ns.push_back(static_cast<double>(t1 - t0) / probes);
      if (pin) {
        for (const PoolPair& p : pairs) sink += pin->Query(p.s, p.t).count;
        flat_ns.push_back(static_cast<double>(NowNs() - t1) / probes);
      }
      t1 = NowNs();
      for (const PoolPair& p : pairs) sink += engine.index().Query(p.s, p.t).count;
      idx_ns.push_back(static_cast<double>(NowNs() - t1) / probes);
    }
    checks.Expect(static_cast<bool>(pin), "a snapshot is published after the read window");
    pl.push_back({"api.spc_service.read_overhead_ns", Median(svc_ns) - Median(flat_ns), "ns"});
    pl.push_back({"core.flat_spc_index.query_ns", Median(flat_ns), "ns"});
    pl.push_back({"core.spc_index.query_ns", Median(idx_ns), "ns"});
    double words = 0;
    for (const PoolPair& p : pairs) {
      words += static_cast<double>(engine.index().Labels(p.s).size() +
                                   engine.index().Labels(p.t).size()) / 2;
    }
    pl.push_back({"core.flat_spc_index.label_words", words / probes, "entries"});
    pl.push_back({"core.spc_index.label_entries",
                  static_cast<double>(engine.index().SizeStats().total_entries), "entries"});
    pl.push_back({"core.flat_spc_index.arena_bytes",
                  pin ? static_cast<double>(pin->ArenaBytes()) : 0.0, "bytes"});

    const size_t pins = opt.toy ? 20000 : 500000;
    const dspc::SnapshotManager* sm = engine.snapshots();
    auto pin_loop = [&] {
      uint64_t g = 0;
      const int64_t t0 = NowNs();
      for (size_t i = 0; i < pins; ++i) g += sm->Pin().generation;
      return std::pair{static_cast<double>(NowNs() - t0) / pins, g};
    };
    auto [pin1, g1] = pin_loop();
    sink += g1;
    std::vector<double> pin4(4);
    {
      std::vector<std::thread> ts;
      for (int i = 0; i < 4; ++i) {
        ts.emplace_back([&, i] { pin4[i] = pin_loop().first; });
      }
      for (auto& t : ts) t.join();
    }
    pl.push_back({"core.snapshot_manager.pin_ns", pin1, "ns"});
    pl.push_back({"core.snapshot_manager.pin_ns_4t", Mean(pin4), "ns"});

    // Replica and mapped-reader reads at the same generation (the graph is
    // unchanged since the oracle answers were computed).
    const size_t small = std::min<size_t>(probes, 20000);
    int64_t t0 = NowNs();
    for (size_t i = 0; i < small; ++i) {
      auto r = replica->Query(pairs[i].s, pairs[i].t);
      if (!r.ok() || r->result.count != pairs[i].count || r->result.dist != pairs[i].dist) {
        checks.Fail("replica read in layer probe");
        break;
      }
    }
    pl.push_back({"api.replica_service.read_ns", static_cast<double>(NowNs() - t0) / small, "ns"});
    t0 = NowNs();
    for (size_t i = 0; i < small; ++i) {
      auto r = mapped->Query(pairs[i].s, pairs[i].t,
                             {.consistency = dspc::Consistency::kSnapshot});
      if (!r.ok() || r->result.count != pairs[i].count || r->result.dist != pairs[i].dist) {
        checks.Fail("mapped read in layer probe");
        break;
      }
    }
    pl.push_back({"api.mapped_reader_service.read_ns", static_cast<double>(NowNs() - t0) / small, "ns"});
    att += 2 * small;

    // Sequential HP-SPC build and packing on the same graph, timed apart
    // from setup_s.
    dspc::Graph copy(n, lib_edges);
    const int64_t b0 = NowNs();
    const dspc::SpcIndex built = dspc::BuildSpcIndex(copy);
    const int64_t b1 = NowNs();
    const dspc::FlatSpcIndex packed(built);
    const int64_t b2 = NowNs();
    sink += packed.NumVertices();
    pl.push_back({"core.hp_spc.build_s", static_cast<double>(b1 - b0) / 1e9, "s"});
    pl.push_back({"core.flat_spc_index.pack_ms", static_cast<double>(b2 - b1) / 1e6, "ms"});
    if (sink == 42) out->notes.push_back("");  // keeps the loops observable
  }

  // --- writes -----------------------------------------------------------------
  std::unique_ptr<dspc::DynamicSpcIndex> twin;
  TwinStats ts;
  if (opt.trace) twin = std::make_unique<dspc::DynamicSpcIndex>(dspc::Graph(n, lib_edges));
  const dspc::MetricsSnapshot before_writes = svc->Metrics();
  const uint64_t wal_before = WalBytes(primary_dir);
  std::vector<double> insert_ms, delete_ms, write_ms, fresh_us, adopt_ms;
  std::vector<double> replica_ins_ms, replica_del_ms;
  uint64_t gen = svc->Generation();
  checks.Expect(gen == gen0, "no generation change during the read window");
  const int64_t write_start = NowNs();
  const auto write_ns = static_cast<int64_t>(std::max(0.1, opt.seconds - read_s) * 1e9);
  uint64_t rounds = 0, writes = 0;
  while (rounds == 0 || NowNs() - write_start < write_ns) {
    tracer.set_request(++rounds);
    write_probe_ms.push_back(probe.RunMs());
    Tracer::Scope round_span(&tracer, "round");
    const std::vector<Write> round = NextRound(*cfg, oracle, write_rng);
    for (const Write& w : round) {
      ++att;
      ++writes;
      Tracer::Scope ws(&tracer, w.insert ? "insert" : "delete");
      auto resp = w.insert ? svc->InsertEdge(w.u, w.v, {.durable = true})
                           : svc->RemoveEdge(w.u, w.v, {.durable = true});
      ws.End();
      const int64_t ack_ns = NowNs();
      if (!resp.ok()) {
        fail_status(w.insert ? "insert" : "delete", resp.status());
        continue;
      }
      if (resp->applied != 1 || !resp->token.durable) {
        ++failed;
        out->notes.push_back("write not applied durably");
        continue;
      }
      ++gen;
      checks.Expect(resp->token.generation == gen, "write token generation");
      checks.Expect(w.insert ? oracle.Add(w.u, w.v) : oracle.Remove(w.u, w.v),
                    "oracle applies the same write");
      (w.insert ? insert_ms : delete_ms).push_back(ws.Ms());
      write_ms.push_back(ws.Ms());
      if (twin != nullptr) {
        Tracer::Scope a(&tracer, w.insert ? "twin_inc" : "twin_dec");
        const dspc::UpdateStats st = w.insert ? twin->InsertEdge(w.u, w.v)
                                              : twin->RemoveEdge(w.u, w.v);
        a.End();
        (w.insert ? ts.inc_ms : ts.dec_ms).push_back(a.Ms());
        const auto hubs = static_cast<double>(st.affected_hubs);
        const auto visited = static_cast<double>(st.visited_vertices);
        const auto changes = static_cast<double>(st.TotalChanges());
        if (w.insert) {
          ts.inc_hubs += hubs, ts.inc_visited += visited, ts.inc_changes += changes;
        } else {
          ts.dec_hubs += hubs, ts.dec_visited += visited, ts.dec_changes += changes;
          ts.dec_sr += static_cast<double>(st.sr_a + st.sr_b);
          ts.dec_r += static_cast<double>(st.r_a + st.r_b);
        }
        Tracer::Scope r(&tracer, "twin_refresh");
        twin->WaitForFreshSnapshot();
        r.End();
        ts.refresh_ms.push_back(r.Ms());
      }
      // Read-your-writes read of the written pair.
      const Answer want = w.insert ? Answer{1, 1, false} : counter.Pair(oracle, w.u, w.v);
      ++att;
      Tracer::Scope fs_span(&tracer, "fresh_read");
      auto q = svc->Query(w.u, w.v, {.min_generation = gen});
      fs_span.End();
      if (!q.ok()) {
        fail_status("fresh read", q.status());
        continue;
      }
      fresh_us.push_back(static_cast<double>(fs_span.Ns()) / 1e3);
      checks.Expect(q->generation == gen, "fresh read generation");
      checks.Expect(w.insert ? q->result.dist == 1 && q->result.count == 1
                             : q->result.dist >= 2,
                    "insert then read gives (1, 1); delete then read gives distance >= 2");
      checks.ExpectAnswer("fresh read", w.u, w.v, want, q->result);

      // Ship the write and read it back on the replica at its generation.
      att += 3;
      Tracer::Scope rep(&tracer, "replicate");
      {
        Tracer::Scope s(&tracer, "ship");
        if (auto st = shipper->ShipOnce(); !st.ok()) fail_status("ShipOnce", st);
      }
      {
        Tracer::Scope s(&tracer, "step");
        if (auto st = replica->Step(); !st.ok()) fail_status("Step", st);
      }
      Tracer::Scope rs(&tracer, "replica_read");
      auto rq = replica->Query(w.u, w.v, {.min_generation = gen});
      rs.End();
      rep.End();
      (w.insert ? replica_ins_ms : replica_del_ms)
          .push_back(static_cast<double>(NowNs() - ack_ns) / 1e6);
      if (!rq.ok()) {
        fail_status("replica read", rq.status());
      } else {
        checks.Expect(rq->generation == gen, "replica answers at the acked generation");
        checks.ExpectAnswer("replica read", w.u, w.v, want, rq->result);
      }
    }
    // Properties on the round's last pair and one random pair, on the
    // primary and the replica, then a publish adopted by the mapped reader.
    const Write& last = round.back();
    const auto x = static_cast<Vertex>(write_rng.Below(n));
    const auto y = static_cast<Vertex>(write_rng.Below(n));
    const Answer want_last = counter.Pair(oracle, last.u, last.v);
    const Answer want_xy = counter.Pair(oracle, x, y);
    att += 5;
    for (const auto& [s, t, want] : {std::tuple{last.v, last.u, want_last},
                                     std::tuple{x, y, want_xy},
                                     std::tuple{y, x, want_xy}}) {
      auto q = svc->Query(s, t, {.min_generation = gen});
      if (!q.ok()) {
        fail_status("primary read", q.status());
      } else {
        checks.ExpectAnswer("primary read", s, t, want, q->result);
      }
    }
    {
      auto q = svc->Query(x, x);
      if (!q.ok()) {
        fail_status("self read", q.status());
      } else {
        checks.Expect(q->result.dist == 0 && q->result.count == 1, "(v, v) gives (0, 1)");
      }
      auto r = replica->Query(x, y, {.min_generation = gen});
      if (!r.ok()) {
        fail_status("replica read", r.status());
      } else {
        checks.Expect(r->generation == gen, "replica answers at the acked generation");
        checks.ExpectAnswer("replica read", x, y, want_xy, r->result);
      }
    }
    Tracer::Scope adopt(&tracer, "publish_adopt");
    att += 3;
    {
      Tracer::Scope s(&tracer, "publish");
      if (auto st = svc->PublishSnapshot(publisher.get()); !st.ok()) {
        fail_status("PublishSnapshot", st);
      }
    }
    {
      Tracer::Scope s(&tracer, "refresh");
      if (auto st = mapped->Refresh(); !st.ok()) fail_status("Refresh", st);
    }
    {
      Tracer::Scope s(&tracer, "mapped_read");
      auto q = mapped->Query(x, y, {.consistency = dspc::Consistency::kSnapshot,
                                    .min_generation = gen});
      s.End();
      adopt.End();
      adopt_ms.push_back(adopt.Ms());
      if (!q.ok()) {
        fail_status("mapped read", q.status());
      } else {
        checks.Expect(q->generation == gen, "mapped reader answers at the published generation");
        checks.ExpectAnswer("mapped read", x, y, want_xy, q->result);
      }
    }
  }
  const double write_window_s = static_cast<double>(NowNs() - write_start) / 1e9;
  checks.Expect(svc->Generation() == gen0 + writes &&
                    gen == gen0 + writes,
                "generation advanced by exactly the writes issued");
  const uint64_t wal_after = WalBytes(primary_dir);
  const dspc::MetricsSnapshot after_writes = svc->Metrics();

  // --- checkpoint and reopen ---------------------------------------------------
  double checkpoint_ms = 0, reopen_s = 0;
  {
    ++att;
    Tracer::Scope s(&tracer, "checkpoint");
    const dspc::Status st = svc->Checkpoint();
    s.End();
    checkpoint_ms = s.Ms();
    if (!st.ok()) fail_status("Checkpoint", st);
  }
  const dspc::MetricsSnapshot final_metrics = svc->Metrics();
  mapped.reset();
  replica.reset();
  shipper.reset();
  publisher.reset();
  svc.reset();
  {
    ++att;
    Tracer::Scope s(&tracer, "reopen");
    auto re = dspc::SpcService::Open(dspc::Graph(), {.dir = primary_dir});
    s.End();
    reopen_s = s.Seconds();
    if (!re.ok()) {
      fail_status("reopen", re.status());
    } else {
      auto& svc2 = *re.value();
      checks.Expect(svc2.Generation() == gen, "recovered generation equals the last acked one");
      Rng srng(DeriveSeed(opt.seed, 5));
      for (int i = 0; i < 16; ++i) {
        const auto s2 = static_cast<Vertex>(srng.Below(n));
        const auto t2 = static_cast<Vertex>(srng.Below(n));
        ++att;
        auto q = svc2.Query(s2, t2);
        if (!q.ok()) {
          fail_status("read after reopen", q.status());
        } else {
          checks.ExpectAnswer("read after reopen", s2, t2, counter.Pair(oracle, s2, t2), q->result);
        }
      }
    }
  }

  // --- results ----------------------------------------------------------------
  const auto applied = static_cast<double>(writes);
  auto& e2e = out->end_to_end;
  e2e.push_back({"setup_s", setup_s, "s"});
  e2e.push_back({"rss_mb", rss_mb, "MiB"});
  // The 90th percentile, not the median block: other guests on the host
  // only slow the vCPU down, for seconds at a time, and the median follows
  // how long a run spends slowed (perfbench/README.md).
  e2e.push_back({"read_qps", Percentile(rw.block_qps, 0.90), "1/s"});

  out->notes.push_back(
      "reads " + std::to_string(rw.reads) + " in " + std::to_string(rw.block_qps.size()) +
      " blocks; writes " + std::to_string(writes) + " (" + std::to_string(insert_ms.size()) +
      " inserts, " + std::to_string(delete_ms.size()) + " deletes) in " +
      std::to_string(rounds) + " rounds over " + std::to_string(write_window_s) + " s");
  out->notes.push_back("oracle answers with a true count >= 2^64: " +
                       std::to_string(reads.wide) + " of " +
                       std::to_string(reads.answers) + " precomputed");
  out->notes.push_back("setup: process CPU " + std::to_string(setup_cpu_s) +
                       " s, host steal " + std::to_string(setup_steal) +
                       " ticks; read window: client CPU share " +
                       std::to_string(rw.cpu_share));
  out->notes.push_back("host.probe_ms read " + std::to_string(Median(rw.probe_ms)) +
                       " write " + std::to_string(Median(write_probe_ms)));
  {
    std::string blocks = "read blocks (k/s):";
    for (double q : rw.block_qps) blocks += " " + std::to_string(static_cast<int>(q / 1000));
    out->notes.push_back(blocks);
  }
  char table4[200];
  std::snprintf(table4, sizeof table4,
                "update means: insert %.3f ms, delete %.3f ms (p50 %.3f); "
                "setup_s / insert = %.0f, setup_s / delete = %.1f",
                Mean(insert_ms), Mean(delete_ms), Median(delete_ms),
                setup_s * 1e3 / std::max(1e-9, Mean(insert_ms)),
                setup_s * 1e3 / std::max(1e-9, Mean(delete_ms)));
  out->notes.push_back(table4);

  if (opt.trace) {
    const double span_ns = Tracer::CalibrateSpanNs();
    const double traced_ns = (setup_s + write_window_s) * 1e9;
    pl.push_back({"api.spc_service.write_overhead_ms",
                  Mean(write_ms) - Mean([&] {
                    std::vector<double> all = ts.inc_ms;
                    all.insert(all.end(), ts.dec_ms.begin(), ts.dec_ms.end());
                    return all;
                  }()),
                  "ms"});
    pl.push_back({"api.spc_service.read_p50_us", Median(rw.block_p50_us), "us"});
    pl.push_back({"api.spc_service.read_p99_us", Median(rw.block_p99_us), "us"});
    pl.push_back({"api.spc_service.fresh_read_p50_us", Median(fresh_us), "us"});
    pl.push_back({"api.spc_service.insert_p50_ms", Median(insert_ms), "ms"});
    pl.push_back({"api.spc_service.insert_mean_ms", Mean(insert_ms), "ms"});
    pl.push_back({"api.spc_service.delete_mean_ms", Mean(delete_ms), "ms"});
    pl.push_back({"api.spc_service.delete_p50_ms", Median(delete_ms), "ms"});
    pl.push_back({"api.spc_service.fresh_read_p99_us", Percentile(fresh_us, 0.99), "us"});
    pl.push_back({"api.replica_service.visible_after_insert_ms", Median(replica_ins_ms), "ms"});
    pl.push_back({"api.replica_service.visible_after_delete_ms", Median(replica_del_ms), "ms"});
    pl.push_back({"api.mapped_reader_service.publish_adopt_ms", Median(adopt_ms), "ms"});
    pl.push_back({"api.replica_service.step_ms", tracer.MeanMs("step"), "ms"});
    pl.push_back({"api.mapped_reader_service.refresh_ms", tracer.MeanMs("refresh"), "ms"});
    pl.push_back({"core.snapshot_manager.refresh_ms", Mean(ts.refresh_ms), "ms"});
    const double snap = static_cast<double>(final_metrics.served_from_snapshot);
    const double live = static_cast<double>(final_metrics.served_from_live);
    pl.push_back({"core.snapshot_manager.snapshot_share", snap / std::max(1.0, snap + live), "ratio"});
    const double ni = std::max<double>(1, static_cast<double>(ts.inc_ms.size()));
    const double nd = std::max<double>(1, static_cast<double>(ts.dec_ms.size()));
    pl.push_back({"core.inc_spc.apply_ms", Mean(ts.inc_ms), "ms"});
    pl.push_back({"core.dec_spc.apply_ms", Mean(ts.dec_ms), "ms"});
    pl.push_back({"core.inc_spc.affected_hubs", ts.inc_hubs / ni, "count"});
    pl.push_back({"core.inc_spc.visited", ts.inc_visited / ni, "count"});
    pl.push_back({"core.inc_spc.label_changes", ts.inc_changes / ni, "count"});
    pl.push_back({"core.dec_spc.affected_hubs", ts.dec_hubs / nd, "count"});
    pl.push_back({"core.dec_spc.visited", ts.dec_visited / nd, "count"});
    pl.push_back({"core.dec_spc.label_changes", ts.dec_changes / nd, "count"});
    pl.push_back({"core.dec_spc.sr_size", ts.dec_sr / nd, "count"});
    pl.push_back({"core.dec_spc.r_size", ts.dec_r / nd, "count"});
    pl.push_back({"core.dec_spc.changes_per_visit",
                  ts.dec_changes / std::max(1.0, ts.dec_visited), "ratio"});
    pl.push_back({"persist.replication.ship_ms", tracer.MeanMs("ship"), "ms"});
    pl.push_back({"persist.snapshot_publisher.publish_ms", tracer.MeanMs("publish"), "ms"});
    pl.push_back({"persist.wal.syncs_per_write",
                  static_cast<double>(after_writes.wal_syncs - before_writes.wal_syncs) /
                      std::max(1.0, applied),
                  "ratio"});
    pl.push_back({"persist.wal.bytes_per_update",
                  static_cast<double>(wal_after - wal_before) / std::max(1.0, applied),
                  "bytes"});
    pl.push_back({"persist.checkpointer.checkpoint_ms", checkpoint_ms, "ms"});
    pl.push_back({"persist.recovery.reopen_s", reopen_s, "s"});
    std::vector<double> all_probes = rw.probe_ms;
    all_probes.insert(all_probes.end(), write_probe_ms.begin(), write_probe_ms.end());
    pl.push_back({"host.probe_ms", Median(all_probes), "ms"});
    pl.push_back({"trace.overhead_pct",
                  100.0 * static_cast<double>(tracer.size()) * span_ns / traced_ns, "%"});
    pl.push_back({"check.wide_count_share",
                  static_cast<double>(reads.wide) / std::max<double>(1, reads.answers),
                  "ratio"});

    fs::create_directories(opt.work_dir);
    const std::string trace_path = opt.work_dir + "/trace-" + cfg->name + "-" +
                                   std::to_string(opt.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(trace_path)) {
      out->notes.push_back("could not write " + trace_path);
    }
    for (const auto& [name, t] : tracer.Summarize()) {
      char line[160];
      std::snprintf(line, sizeof line, "span %-16s n=%-6llu total %10.2f ms  self %10.2f ms",
                    name.c_str(), static_cast<unsigned long long>(t.spans),
                    t.total_ms, t.self_ms);
      out->notes.push_back(line);
    }
  }

  out->correct = checks.failures() == 0;
  for (std::string& note : checks.notes()) out->notes.push_back(std::move(note));
  return true;
}

}  // namespace perfbench
