// Call-scoped snapshot leases and the per-thread snapshot cache behind
// them (DESIGN.md §7): a lease borrows the published snapshot without
// refcount traffic, sees every publish on its next acquisition, keeps the
// snapshot it borrowed alive across nested leases that refresh past a
// publish, lets a retired snapshot go on the thread's next read, and
// never serves one manager's snapshot for another — not across more
// managers than cache slots, and not for a new manager built at a dead
// one's address and generation.

#include <gtest/gtest.h>

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "dspc/api/spc_service.h"
#include "dspc/baseline/bfs_counting.h"
#include "dspc/common/rng.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/core/snapshot_manager.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"

namespace dspc {
namespace {

/// A manual-policy source over a fixed index that reports `*generation`
/// and repacks everything on every refresh.
SnapshotManager::Source FullSource(const SpcIndex* index,
                                   const uint64_t* generation) {
  return [index, generation](const FlatSpcIndex*) {
    FlatSpcIndex::IndexDelta delta;
    delta.generation = *generation;
    delta.layout_stamp = 1;
    delta.num_vertices = index->NumVertices();
    delta.full = true;
    delta.ordering = index->ordering();
    delta.dirty.push_back(
        {0, index->CopyLabelRange(0, static_cast<Vertex>(
                                         index->NumVertices()))});
    return delta;
  };
}

/// Every pair of `graph` answered by `snapshot` matches BFS.
void ExpectExact(const Graph& graph, const FlatSpcIndex& snapshot) {
  const size_t n = graph.NumVertices();
  ASSERT_EQ(snapshot.NumVertices(), n);
  for (Vertex s = 0; s < n; s += 3) {
    for (Vertex t = 0; t < n; t += 5) {
      ASSERT_EQ(snapshot.Query(s, t), BfsCountPair(graph, s, t))
          << "(" << s << "," << t << ")";
    }
  }
}

/// Runs closures on one long-lived thread, so its snapshot cache survives
/// between steps the main thread interleaves.
class SerialThread {
 public:
  SerialThread() : thread_([this] { Loop(); }) {}
  ~SerialThread() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Runs `fn` on the thread and waits for it to finish.
  void Run(std::function<void()> fn) {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push_back(std::move(fn));
    cv_.notify_all();
    cv_.wait(lock, [&] { return tasks_.empty() && !busy_; });
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;
      std::function<void()> fn = std::move(tasks_.front());
      tasks_.pop_front();
      busy_ = true;
      lock.unlock();
      fn();
      lock.lock();
      busy_ = false;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool busy_ = false;
  bool stop_ = false;
  std::thread thread_;
};

TEST(SnapshotLeaseTest, RepeatedLeasesLeavePinUseCountUnchanged) {
  const Graph g = GenerateBarabasiAlbert(60, 2, 5);
  const SpcIndex index = BuildSpcIndex(g);
  uint64_t generation = 1;
  SnapshotManager mgr(FullSource(&index, &generation), RefreshPolicy::kManual,
                      1);
  mgr.RefreshNow(generation);
  const SnapshotManager::Pinned pin = mgr.Pin();
  ASSERT_TRUE(static_cast<bool>(pin));
  const long before = pin.snapshot.use_count();
  for (int i = 0; i < 100; ++i) {
    SnapshotManager::Lease lease;
    mgr.Acquire(generation, 1, &lease);
    ASSERT_TRUE(static_cast<bool>(lease));
    EXPECT_EQ(lease.generation(), 1u);
    EXPECT_EQ(&*lease, pin.snapshot.get());
    EXPECT_EQ(pin.snapshot.use_count(), before);
  }
  EXPECT_EQ(pin.snapshot.use_count(), before);
  // An owning pin is still one refcount, taken and dropped.
  { const SnapshotManager::Pinned again = mgr.Pin(); }
  EXPECT_EQ(pin.snapshot.use_count(), before);
}

TEST(SnapshotLeaseTest, LeaseAfterPublishSeesNewGeneration) {
  const Graph g = GenerateBarabasiAlbert(60, 2, 6);
  const SpcIndex index = BuildSpcIndex(g);
  uint64_t generation = 1;
  SnapshotManager mgr(FullSource(&index, &generation), RefreshPolicy::kManual,
                      1);
  {
    SnapshotManager::Lease lease;
    mgr.Borrow(&lease);
    EXPECT_FALSE(static_cast<bool>(lease)) << "nothing published yet";
  }
  mgr.RefreshNow(generation);
  for (uint64_t next = 2; next <= 5; ++next) {
    {
      SnapshotManager::Lease lease;
      mgr.Borrow(&lease);
      ASSERT_TRUE(static_cast<bool>(lease));
      EXPECT_EQ(lease.generation(), next - 1);
    }
    generation = next;
    mgr.RefreshNow(generation);
    SnapshotManager::Lease lease;
    mgr.Acquire(generation, 1, &lease);
    ASSERT_TRUE(static_cast<bool>(lease));
    EXPECT_EQ(lease.generation(), next);
    EXPECT_EQ(&*lease, mgr.Pin().snapshot.get());
    ExpectExact(g, *lease);
  }
}

TEST(SnapshotLeaseTest, NestedLeaseAcrossPublishKeepsOuterSnapshotAlive) {
  const Graph g = GenerateBarabasiAlbert(60, 2, 7);
  const SpcIndex index = BuildSpcIndex(g);
  uint64_t generation = 1;
  SnapshotManager mgr(FullSource(&index, &generation), RefreshPolicy::kManual,
                      1);
  mgr.RefreshNow(generation);
  std::weak_ptr<const FlatSpcIndex> outer_snapshot;
  {
    SnapshotManager::Lease outer;
    mgr.Borrow(&outer);
    ASSERT_EQ(outer.generation(), 1u);
    outer_snapshot = mgr.Pin().snapshot;
    generation = 2;
    mgr.RefreshNow(generation);  // retires the outer lease's snapshot
    {
      // Misses on this thread's cache and must refresh a slot other than
      // the one the outer lease borrowed from.
      SnapshotManager::Lease inner;
      mgr.Borrow(&inner);
      ASSERT_EQ(inner.generation(), 2u);
      EXPECT_NE(&*inner, &*outer);
      EXPECT_FALSE(outer_snapshot.expired());
      ExpectExact(g, *inner);
    }
    EXPECT_FALSE(outer_snapshot.expired());
    EXPECT_EQ(outer.generation(), 1u);
    ExpectExact(g, *outer);
  }
  // The outer slot's last lease ended after a publish: retired and freed.
  EXPECT_TRUE(outer_snapshot.expired());
}

TEST(SnapshotLeaseTest, RetiredSnapshotIsFreedOnTheThreadsNextRead) {
  const Graph g = GenerateBarabasiAlbert(60, 2, 8);
  const SpcIndex index = BuildSpcIndex(g);
  uint64_t generation = 1;
  SnapshotManager mgr(FullSource(&index, &generation), RefreshPolicy::kManual,
                      1);
  mgr.RefreshNow(generation);
  std::weak_ptr<const FlatSpcIndex> first;
  {
    SnapshotManager::Lease lease;
    mgr.Borrow(&lease);
    first = mgr.Pin().snapshot;
  }
  generation = 2;
  mgr.RefreshNow(generation);
  // Published no more and pinned by nobody, but still in this thread's
  // cache until the thread reads this manager again.
  EXPECT_FALSE(first.expired());
  {
    SnapshotManager::Lease lease;
    mgr.Borrow(&lease);
    EXPECT_EQ(lease.generation(), 2u);
  }
  EXPECT_TRUE(first.expired());
}

TEST(SnapshotLeaseTest, ServicesQueriedAlternatelyOnOneThreadStayExact) {
  // Two services with different graphs (and sizes), one updated under
  // kSync so it republishes, read alternately on this thread.
  Graph ga = GenerateBarabasiAlbert(70, 2, 9);
  const Graph gb = GenerateErdosRenyi(50, 120, 10);
  SpcService a(ga);
  SpcService b(gb);
  a.engine().WaitForFreshSnapshot();
  b.engine().WaitForFreshSnapshot();
  const std::vector<Edge> inserts = SampleNonEdges(ga, 6, 11);
  Rng rng(12);
  for (const Edge& e : inserts) {
    for (int i = 0; i < 40; ++i) {
      const auto sa = static_cast<Vertex>(rng.NextBounded(70));
      const auto ta = static_cast<Vertex>(rng.NextBounded(70));
      const auto sb = static_cast<Vertex>(rng.NextBounded(50));
      const auto tb = static_cast<Vertex>(rng.NextBounded(50));
      const auto ra = a.Query(sa, ta);
      const auto rb = b.Query(sb, tb);
      ASSERT_TRUE(ra.ok() && rb.ok());
      ASSERT_EQ(ra->result, BfsCountPair(ga, sa, ta));
      ASSERT_EQ(rb->result, BfsCountPair(gb, sb, tb));
    }
    ASSERT_TRUE(a.InsertEdge(e.u, e.v).ok());
    ASSERT_TRUE(ga.AddEdge(e.u, e.v));
  }
  EXPECT_GT(a.engine().SnapshotRebuilds(), 1u);
}

TEST(SnapshotLeaseTest, MoreManagersThanSlotsStayExact) {
  constexpr size_t kEngines = SnapshotManager::kCacheSlots + 3;
  std::vector<Graph> graphs;
  std::vector<std::unique_ptr<DynamicSpcIndex>> engines;
  for (size_t i = 0; i < kEngines; ++i) {
    graphs.push_back(GenerateBarabasiAlbert(30 + 7 * i, 2, 20 + i));
    DynamicSpcOptions options;
    options.snapshot.refresh = RefreshPolicy::kBackground;
    engines.push_back(std::make_unique<DynamicSpcIndex>(graphs[i], options));
  }
  // Round-robin single reads: every read evicts another engine's slot.
  Rng rng(13);
  for (int round = 0; round < 30; ++round) {
    for (size_t i = 0; i < kEngines; ++i) {
      const size_t n = graphs[i].NumVertices();
      const auto s = static_cast<Vertex>(rng.NextBounded(n));
      const auto t = static_cast<Vertex>(rng.NextBounded(n));
      ASSERT_EQ(engines[i]->Query(s, t), BfsCountPair(graphs[i], s, t))
          << "engine " << i;
    }
  }
  // Leases held on every engine at once: the slots run out, and the
  // leases past them own their snapshots instead.
  std::vector<std::unique_ptr<SnapshotManager::Lease>> leases;
  for (size_t i = 0; i < kEngines; ++i) {
    leases.push_back(std::make_unique<SnapshotManager::Lease>());
    engines[i]->BorrowSnapshot(leases.back().get());
    ASSERT_TRUE(static_cast<bool>(*leases.back()));
  }
  for (size_t i = 0; i < kEngines; ++i) ExpectExact(graphs[i], **leases[i]);
}

TEST(SnapshotLeaseTest, NewManagerAtADeadOnesAddressNeverServesItsSnapshot) {
  // Both managers publish generation 1; the second is built in the first
  // one's storage. A reader thread that cached the first manager's
  // snapshot — and outlives it — must read the second's.
  const Graph g1 = GenerateBarabasiAlbert(40, 2, 14);
  const Graph g2 = GenerateBarabasiAlbert(64, 3, 15);
  const SpcIndex i1 = BuildSpcIndex(g1);
  const SpcIndex i2 = BuildSpcIndex(g2);
  const uint64_t generation = 1;
  std::optional<SnapshotManager> mgr;
  SerialThread reader;

  mgr.emplace(FullSource(&i1, &generation), RefreshPolicy::kManual, 1);
  const SnapshotManager* first_address = &*mgr;
  mgr->RefreshNow(generation);
  reader.Run([&] {
    SnapshotManager::Lease lease;
    mgr->Borrow(&lease);
    ASSERT_EQ(lease.generation(), 1u);
    ExpectExact(g1, *lease);
  });

  mgr.reset();
  mgr.emplace(FullSource(&i2, &generation), RefreshPolicy::kManual, 1);
  ASSERT_EQ(&*mgr, first_address);
  mgr->RefreshNow(generation);
  reader.Run([&] {
    SnapshotManager::Lease lease;
    mgr->Borrow(&lease);
    ASSERT_EQ(lease.generation(), 1u);
    ExpectExact(g2, *lease);
    ExpectExact(g2, *mgr->Pin());
  });
}

}  // namespace
}  // namespace dspc
