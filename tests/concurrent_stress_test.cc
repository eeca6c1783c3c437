// Concurrent serving stress: writer threads apply updates while reader
// threads pin snapshots and issue Query/BatchQuery, asserting that every
// answer is consistent with some published snapshot generation — no torn
// reads (a snapshot always answers exactly as BFS on the graph of the
// generation it claims) and no use-after-free of retired snapshots (a pin
// held across many later publishes keeps answering for its own
// generation; TSan/ASan builds turn any liveness bug into a hard fail).
//
// The update script is fixed up front so the per-generation ground truth
// can be precomputed by replaying it on a scratch graph: generation g is
// the initial graph plus the first g-1 updates.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "dspc/api/spc_service.h"
#include "dspc/baseline/bfs_counting.h"
#include "dspc/common/rng.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"

namespace dspc {
namespace {

struct Script {
  Graph start;
  std::vector<Update> updates;          // all guaranteed to apply
  std::vector<VertexPair> probes;       // fixed query set
  // truth[g - 1][i]: BFS answer for probes[i] on the generation-g graph
  // (g in [1, 1 + updates.size()]).
  std::vector<std::vector<SpcResult>> truth;
  // Optional generation -> truth-row indirection: gen_truth[g - 1] is the
  // truth index for generation g. Empty means the identity (generation g
  // = first g - 1 updates); the parallel-rebuild stress interposes
  // Rebuild() generations, which repeat the previous row because a
  // rebuild bumps the generation without changing the graph.
  std::vector<size_t> gen_truth;

  uint64_t MaxGeneration() const {
    return gen_truth.empty() ? 1 + updates.size() : gen_truth.size();
  }

  const std::vector<SpcResult>& TruthAt(uint64_t gen) const {
    return gen_truth.empty() ? truth[gen - 1] : truth[gen_truth[gen - 1]];
  }

  /// Rewrites gen_truth for a writer that calls Rebuild() after every
  /// `every` applied updates.
  void InterposeRebuilds(size_t every) {
    gen_truth.clear();
    gen_truth.push_back(0);  // generation 1: the initial build
    for (size_t i = 0; i < updates.size(); ++i) {
      gen_truth.push_back(i + 1);
      if ((i + 1) % every == 0) gen_truth.push_back(i + 1);
    }
  }

  /// True iff `r` is the answer for probe i at some generation.
  bool ConsistentWithSomeGeneration(size_t i, const SpcResult& r) const {
    for (const auto& per_gen : truth) {
      if (per_gen[i] == r) return true;
    }
    return false;
  }
};

/// Interleaves sampled non-edge insertions and original-edge deletions
/// (disjoint by construction, so every update applies), then replays the
/// stream to record per-generation ground truth for the probe set.
Script MakeScript(size_t n, uint64_t seed, size_t inserts, size_t deletes,
                  size_t probes) {
  Script script;
  script.start = GenerateBarabasiAlbert(n, 2, seed);
  const std::vector<Edge> ins = SampleNonEdges(script.start, inserts, seed + 1);
  const std::vector<Edge> del = SampleEdges(script.start, deletes, seed + 2);
  size_t ii = 0;
  size_t di = 0;
  while (ii < ins.size() || di < del.size()) {
    // 2:1 insert:delete interleave.
    for (int k = 0; k < 2 && ii < ins.size(); ++k, ++ii) {
      script.updates.push_back(Update::Insert(ins[ii].u, ins[ii].v));
    }
    if (di < del.size()) {
      script.updates.push_back(Update::Delete(del[di].u, del[di].v));
      ++di;
    }
  }

  Rng rng(seed + 3);
  for (size_t i = 0; i < probes; ++i) {
    script.probes.emplace_back(static_cast<Vertex>(rng.NextBounded(n)),
                               static_cast<Vertex>(rng.NextBounded(n)));
  }

  Graph replay = script.start;
  auto record = [&] {
    std::vector<SpcResult> answers;
    answers.reserve(script.probes.size());
    for (const auto& [s, t] : script.probes) {
      answers.push_back(BfsCountPair(replay, s, t));
    }
    script.truth.push_back(std::move(answers));
  };
  record();  // generation 1
  for (const Update& u : script.updates) {
    if (u.kind == Update::Kind::kInsert) {
      EXPECT_TRUE(replay.AddEdge(u.edge.u, u.edge.v));
    } else {
      EXPECT_TRUE(replay.RemoveEdge(u.edge.u, u.edge.v));
    }
    record();
  }
  return script;
}

/// Reader body shared by the tests: loops until `stop`, validating pins
/// against their claimed generation and facade answers against the set of
/// all generations. Uses EXPECT (thread-safe) and bails out on the first
/// failure to keep logs readable.
void ReaderLoop(const DynamicSpcIndex& dyn, const Script& script,
                const std::atomic<bool>& stop, std::atomic<size_t>* iterations,
                std::atomic<int>* failures) {
  // A large batch exercises the parallel snapshot driver mid-update.
  std::vector<VertexPair> batch;
  for (int rep = 0; rep < 4; ++rep) {
    batch.insert(batch.end(), script.probes.begin(), script.probes.end());
  }
  while (!stop.load(std::memory_order_acquire) &&
         failures->load(std::memory_order_relaxed) == 0) {
    // 1) Pinned snapshot: exact answers for the generation it claims.
    if (const auto pin = dyn.PinSnapshot()) {
      if (pin.generation < 1 || pin.generation > script.MaxGeneration()) {
        ADD_FAILURE() << "pinned generation " << pin.generation
                      << " was never published";
        failures->fetch_add(1);
        return;
      }
      const auto& want = script.TruthAt(pin.generation);
      for (size_t i = 0; i < script.probes.size(); ++i) {
        const auto [s, t] = script.probes[i];
        const SpcResult got = pin->Query(s, t);
        if (got != want[i]) {
          ADD_FAILURE() << "torn read: pin gen=" << pin.generation << " probe "
                        << i << " (" << s << "," << t << ") got {" << got.dist
                        << "," << got.count << "} want {" << want[i].dist << ","
                        << want[i].count << "}";
          failures->fetch_add(1);
          return;
        }
      }
    }
    // 2) Facade single queries: must match some published generation.
    for (size_t i = 0; i < script.probes.size(); ++i) {
      const auto [s, t] = script.probes[i];
      const SpcResult got = dyn.Query(s, t);
      if (!script.ConsistentWithSomeGeneration(i, got)) {
        ADD_FAILURE() << "query probe " << i << " (" << s << "," << t
                      << ") answer {" << got.dist << "," << got.count
                      << "} matches no generation";
        failures->fetch_add(1);
        return;
      }
    }
    // 3) Batched parallel driver over a snapshot.
    const std::vector<SpcResult> results = dyn.BatchQuery(batch, 2);
    for (size_t i = 0; i < results.size(); ++i) {
      const size_t probe = i % script.probes.size();
      if (!script.ConsistentWithSomeGeneration(probe, results[i])) {
        ADD_FAILURE() << "batch probe " << probe << " answer matches no "
                      << "generation";
        failures->fetch_add(1);
        return;
      }
    }
    iterations->fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  }
}

void RunConcurrentScript(const Script& script, const DynamicSpcOptions& options,
                         unsigned readers, size_t rebuild_every = 0) {
  DynamicSpcIndex dyn(script.start, options);

  // Held across the whole run: retirement must never invalidate it.
  const auto held = dyn.PinSnapshot();

  std::atomic<bool> stop{false};
  std::atomic<size_t> iterations{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  pool.reserve(readers);
  for (unsigned r = 0; r < readers; ++r) {
    pool.emplace_back([&] {
      ReaderLoop(dyn, script, stop, &iterations, &failures);
    });
  }

  // Writer: the scripted update burst, spaced so readers interleave,
  // optionally interleaving full rebuilds (which swap the entire index
  // and its ordering under the writer lock).
  size_t applied = 0;
  for (const Update& u : script.updates) {
    EXPECT_TRUE(dyn.Apply(u).applied);
    ++applied;
    if (rebuild_every != 0 && applied % rebuild_every == 0) dyn.Rebuild();
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    if (failures.load() != 0) break;
  }
  // Grace period so readers observe the final generations too.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(iterations.load(), 0u) << "readers never completed a pass";

  // Quiesced end state: the fresh snapshot answers the final truth.
  const auto fin = dyn.WaitForFreshSnapshot();
  ASSERT_TRUE(static_cast<bool>(fin));
  ASSERT_EQ(fin.generation, dyn.Generation());
  ASSERT_EQ(fin.generation, script.MaxGeneration());
  const auto& want = script.TruthAt(fin.generation);
  for (size_t i = 0; i < script.probes.size(); ++i) {
    const auto [s, t] = script.probes[i];
    EXPECT_EQ(fin->Query(s, t), want[i]) << "final probe " << i;
  }

  // The pin held since generation 1 still answers its own truth even
  // though its snapshot has long been retired.
  if (held) {
    const auto& old_want = script.TruthAt(held.generation);
    for (size_t i = 0; i < script.probes.size(); ++i) {
      const auto [s, t] = script.probes[i];
      EXPECT_EQ(held->Query(s, t), old_want[i])
          << "retired snapshot changed under a held pin, probe " << i;
    }
  }
}

TEST(ConcurrentStressTest, BackgroundReadersSeeOnlyPublishedGenerations) {
  const Script script = MakeScript(80, 41, 24, 12, 20);
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kBackground;
  options.snapshot.rebuild_after_queries = 1;  // churn rebuilds hard
  RunConcurrentScript(script, options, 3);
}

TEST(ConcurrentStressTest, SyncInlineRebuildsStayConsistentUnderReaders) {
  const Script script = MakeScript(64, 57, 18, 9, 16);
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kSync;
  options.snapshot.rebuild_after_queries = 4;
  RunConcurrentScript(script, options, 2);
}

// Build-under-concurrent-query (DESIGN.md §12): the writer interleaves
// scripted updates with explicit Rebuild() calls that run the *parallel*
// builder at 4 threads — pool workers reading the graph and the
// under-construction index while reader threads concurrently pin
// snapshots, query the facade, and drive batched snapshot queries. A
// rebuild re-ranks every hub and swaps the whole index under the writer
// lock; readers must never observe a torn state, every pin must answer
// exactly for the generation it claims (rebuild generations repeat the
// previous graph's truth), and the pin held from generation 1 must
// survive all the churn.
TEST(ConcurrentStressTest, ParallelRebuildUnderConcurrentReaders) {
  Script script = MakeScript(72, 117, 20, 10, 16);
  constexpr size_t kRebuildEvery = 5;
  script.InterposeRebuilds(kRebuildEvery);
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kBackground;
  options.snapshot.rebuild_after_queries = 1;
  options.build.threads = 4;
  RunConcurrentScript(script, options, 3, kRebuildEvery);
}

// ServiceMetrics under concurrency: the per-thread counter shards must
// not lose increments — after a multi-threaded serving run, Metrics()
// totals must equal the sums of what every thread locally tallied.
TEST(ConcurrentStressTest, MetricsCountEveryServedReadUnderChurn) {
  const Script script = MakeScript(64, 97, 18, 9, 12);
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kBackground;
  options.snapshot.rebuild_after_queries = 1;
  SpcService service(script.start, options);

  constexpr unsigned kReaders = 4;
  constexpr int kItersPerReader = 60;
  struct LocalTally {
    uint64_t queries_by_mode[3] = {};
    uint64_t served_calls = 0;
    uint64_t batch_calls = 0;
    uint64_t batch_queries = 0;
    uint64_t unavailable = 0;
  };
  std::vector<LocalTally> tallies(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(5000 + r);
      LocalTally& tally = tallies[r];
      const size_t n = script.start.NumVertices();
      for (int i = 0; i < kItersPerReader; ++i) {
        const auto s = static_cast<Vertex>(rng.NextBounded(n));
        const auto t = static_cast<Vertex>(rng.NextBounded(n));
        ReadOptions read;
        const size_t mode = rng.NextBounded(3);
        read.consistency = static_cast<Consistency>(mode);
        read.max_lag = 1 + rng.NextBounded(8);
        if (rng.NextBounded(4) == 0) {
          // One batch call of 6 queries.
          const std::vector<VertexPair> pairs(6, {s, t});
          const auto resp = service.QueryBatch(pairs, read);
          if (resp.ok()) {
            tally.queries_by_mode[mode] += pairs.size();
            tally.served_calls += 1;
            tally.batch_calls += 1;
            tally.batch_queries += pairs.size();
          } else {
            ASSERT_TRUE(resp.status().IsUnavailable());
            tally.unavailable += 1;
          }
        } else {
          const auto resp = service.Query(s, t, read);
          if (resp.ok()) {
            tally.queries_by_mode[mode] += 1;
            tally.served_calls += 1;
          } else {
            // Only kSnapshot can refuse here (pre-publish or trailing).
            ASSERT_TRUE(resp.status().IsUnavailable());
            tally.unavailable += 1;
          }
        }
      }
    });
  }

  // Writer: scripted updates through the service, tallying outcomes.
  uint64_t applied = 0;
  for (const Update& u : script.updates) {
    const auto resp = service.ApplyUpdates({&u, 1});
    ASSERT_TRUE(resp.ok());
    applied += resp->applied;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (std::thread& t : readers) t.join();

  LocalTally total;
  for (const LocalTally& tally : tallies) {
    for (int m = 0; m < 3; ++m) {
      total.queries_by_mode[m] += tally.queries_by_mode[m];
    }
    total.served_calls += tally.served_calls;
    total.batch_calls += tally.batch_calls;
    total.batch_queries += tally.batch_queries;
    total.unavailable += tally.unavailable;
  }

  const MetricsSnapshot m = service.Metrics();
  for (size_t mode = 0; mode < 3; ++mode) {
    EXPECT_EQ(m.queries_by_mode[mode], total.queries_by_mode[mode])
        << "mode " << mode;
  }
  EXPECT_EQ(m.served_from_snapshot + m.served_from_live, m.TotalQueries());
  EXPECT_EQ(m.StalenessSamples(), m.TotalQueries());
  EXPECT_EQ(m.read_batches, total.batch_calls);
  EXPECT_EQ(m.read_batch_queries, total.batch_queries);
  EXPECT_EQ(m.rejected_unavailable, total.unavailable);
  EXPECT_EQ(m.rejected_invalid_argument, 0u);
  EXPECT_EQ(m.deadline_misses_read, 0u);
  EXPECT_EQ(m.write_batches, script.updates.size());
  EXPECT_EQ(m.updates_applied, applied);
  EXPECT_EQ(m.updates_applied, script.updates.size());  // script all-applies
  EXPECT_EQ(m.updates_rejected, 0u);
}

// Snapshot leases under churn: four threads read through
// SpcService::Query (each lease borrowed from its thread's snapshot
// cache) while the writer applies and publishes one generation at a
// time. Every answer must be exact for the generation the response
// claims — a cache slot serving a retired snapshot under a newer
// generation, or a lease whose snapshot was freed, fails here (and under
// TSan, as a race).
TEST(ConcurrentStressTest, ServiceLeasesStayExactWhileWriterPublishes) {
  const Script script = MakeScript(64, 131, 18, 9, 16);
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kBackground;
  options.snapshot.rebuild_after_queries = 1;
  SpcService service(script.start, options);

  constexpr unsigned kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire) &&
             failures.load(std::memory_order_relaxed) == 0) {
        for (size_t i = 0; i < script.probes.size(); ++i) {
          const auto [s, t] = script.probes[i];
          const auto resp = service.Query(s, t);
          if (!resp.ok() || resp->generation < 1 ||
              resp->generation > script.MaxGeneration() ||
              resp->result != script.TruthAt(resp->generation)[i]) {
            ADD_FAILURE() << "probe " << i << " (" << s << "," << t
                          << ") wrong for its claimed generation "
                          << (resp.ok() ? resp->generation : 0);
            failures.fetch_add(1);
            return;
          }
        }
        reads.fetch_add(script.probes.size(), std::memory_order_relaxed);
      }
    });
  }

  for (const Update& u : script.updates) {
    const auto resp = service.ApplyUpdates({&u, 1});
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->applied, 1u);
    ASSERT_TRUE(service.WaitForSnapshot(resp->token).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    if (failures.load() != 0) break;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(service.engine().snapshots()->PublishedGeneration(),
            script.MaxGeneration());
}

TEST(ConcurrentStressTest, RetirementCounterAdvancesUnderChurn) {
  const Script script = MakeScript(48, 73, 12, 6, 8);
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kBackground;
  options.snapshot.rebuild_after_queries = 1;
  DynamicSpcIndex dyn(script.start, options);
  for (const Update& u : script.updates) {
    ASSERT_TRUE(dyn.Apply(u).applied);
    dyn.WaitForFreshSnapshot();  // force a publish per generation
  }
  ASSERT_NE(dyn.snapshots(), nullptr);
  // Every publish after the first retires a predecessor.
  EXPECT_EQ(dyn.snapshots()->RetiredSnapshots(),
            dyn.SnapshotRebuilds() - 1);
  EXPECT_GE(dyn.snapshots()->BackgroundRebuilds(), script.updates.size());
}

}  // namespace
}  // namespace dspc
