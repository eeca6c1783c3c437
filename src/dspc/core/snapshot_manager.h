// SnapshotManager: epoch-guarded publication of immutable FlatSpcIndex
// snapshots for concurrent serving (DESIGN.md §7).
//
// The mutable-build / immutable-serve split (DESIGN.md §5) leaves one
// serving gap: somebody has to notice a stale snapshot and pay the
// O(total entries) rebuild, and with the seed design that somebody was a
// query — an update burst stalled the first reader that crossed the
// staleness budget. The manager closes the gap with an epoch/generation
// protocol:
//
//   lease    The query path leases the published snapshot from a small
//            per-thread cache (kCacheSlots slots, each keyed by a
//            process-unique manager id and the snapshot's generation). A
//            slot is valid while its generation equals the published
//            generation, so a hit costs one read of that read-mostly
//            atomic and no atomic read-modify-write; only a miss (about
//            once per publish per thread) copies the published pointer
//            under a mutex. A Lease borrows the index for one call: it
//            never touches the refcount, cannot be copied or moved, and
//            its slot is never refreshed or evicted while it lives — a
//            nested lease that misses across a publish takes another
//            slot instead.
//   pin      Pin() and the refresh/await calls return an owning Pinned,
//            copied from the cache slot (one refcount increment). A
//            pinned snapshot stays alive for as long as the holder keeps
//            it. Neither path blocks on maintenance or sees a torn index.
//   publish  Each snapshot carries the structural generation of the
//            mutable index it was built from. New snapshots are published
//            by a swap under a mutex; publication is monotone in
//            generation (a slow rebuild can never roll the serving state
//            backwards).
//   retire   The swapped-out snapshot is not freed — readers may still
//            hold pins or cache it — it is retired, and the shared_ptr
//            control block reclaims it when the last pin drops and every
//            thread that cached it has moved on: a reader thread drops
//            its cached copy on its next read of this manager (or when
//            the slot is evicted, or at thread exit). This is epoch-based
//            reclamation with the epoch folded into the refcount: no
//            hazard pointers, no quiescence tracking, no ABA.
//
// Rebuild scheduling is the RefreshPolicy:
//
//   kSync        The seed behavior. Stale queries ride the mutable index
//                until the staleness budget is spent, then one query
//                rebuilds inline (blocking) and publishes. Queries are
//                always answered from current data.
//   kBackground  Queries are always answered from the pinned snapshot,
//                even when it trails the mutable index by a few
//                generations (bounded staleness). Crossing the staleness
//                budget requests an off-thread rebuild: a worker copies
//                the dirty vertex ranges of the mutable index at a
//                consistent point (delta copy-on-read under the facade's
//                shared lock), builds the next snapshot without any lock
//                held, and publishes it. The query path never blocks on
//                maintenance.
//
// Rebuilds are incremental (DESIGN.md §8): the Source callback receives
// the previously published snapshot and returns an IndexDelta covering
// only the shards whose vertices changed since that snapshot's per-shard
// generations. FlatSpcIndex::Rebuild adopts every clean shard by
// shared_ptr and repacks the dirty ones — in parallel over the manager's
// thread pool when rebuild_threads > 1. A delta with no dirty shards
// short-circuits to pure adoption: no label is copied or packed, the
// publish just moves the snapshot generation forward.
//   kManual      No automatic rebuilds; stale queries ride the mutable
//                index. Only explicit RefreshNow/AwaitGeneration calls
//                (DynamicSpcIndex::FlatSnapshot) publish.
//
// Thread-safety: every method may be called from any number of threads.
// A Lease belongs to the thread that filled it and must be released on
// that thread, before the manager is destroyed. The manager itself never
// touches the mutable index directly — it only calls the Source callback,
// which owns the locking discipline.

#ifndef DSPC_CORE_SNAPSHOT_MANAGER_H_
#define DSPC_CORE_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "dspc/core/flat_spc_index.h"
#include "dspc/core/spc_index.h"

namespace dspc {

/// When (and on whose thread) a stale snapshot is rebuilt. See the file
/// comment for the serving semantics of each policy.
enum class RefreshPolicy {
  kSync,        ///< rebuild inline on the query path after the stale budget
  kBackground,  ///< serve bounded-stale pins; rebuild on a worker thread
  kManual,      ///< only explicit refreshes rebuild
};

class ThreadPool;

class SnapshotManager {
  struct Versioned;
  struct CacheSlot;

 public:
  /// Produces a consistent delta copy of the mutable index at a point
  /// where no writer is mid-update: label copies for exactly the shards
  /// that changed relative to `prev` (the currently published snapshot,
  /// null before the first publish — the source must then return a full
  /// delta, as it must whenever the layout stamp no longer matches).
  using Source =
      std::function<FlatSpcIndex::IndexDelta(const FlatSpcIndex* prev)>;

  /// A pinned snapshot: the immutable index plus the generation it was
  /// built from. Holding the Pinned keeps the snapshot alive across any
  /// number of later publishes (retired snapshots are reclaimed only when
  /// their last pin drops).
  struct Pinned {
    std::shared_ptr<const FlatSpcIndex> snapshot;
    uint64_t generation = 0;

    explicit operator bool() const { return snapshot != nullptr; }
    const FlatSpcIndex* operator->() const { return snapshot.get(); }
    const FlatSpcIndex& operator*() const { return *snapshot; }
  };

  /// A call-scoped borrow of a published snapshot: the index plus the
  /// generation it was built from, kept alive by the calling thread's
  /// snapshot cache instead of a refcount. Declared empty by the caller
  /// and filled in place by Acquire/Borrow; it cannot be copied or moved,
  /// so it cannot outlive the call or leave the thread that filled it.
  /// The manager must outlive it.
  class Lease {
   public:
    Lease() = default;
    ~Lease() { Release(); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    explicit operator bool() const { return index_ != nullptr; }
    const FlatSpcIndex* operator->() const { return index_; }
    const FlatSpcIndex& operator*() const { return *index_; }
    uint64_t generation() const { return generation_; }

    /// Ends the borrow early; the lease is empty afterwards. A slot whose
    /// last lease ends after a publish drops its retired snapshot here.
    void Release() {
      if (slot_ != nullptr) {
        if (--slot_->leases == 0 &&
            slot_->generation != manager_->PublishedGeneration()) {
          slot_->Clear();
        }
        slot_ = nullptr;
      }
      owned_.reset();
      index_ = nullptr;
      generation_ = 0;
    }

   private:
    friend class SnapshotManager;

    const SnapshotManager* manager_ = nullptr;
    /// The cache slot this lease borrows from (its lease count is held);
    /// null when the lease owns its snapshot instead.
    CacheSlot* slot_ = nullptr;
    /// Owning fallback: an inline rebuild's result, or the published
    /// snapshot when every cache slot is already leased.
    std::shared_ptr<const FlatSpcIndex> owned_;
    const FlatSpcIndex* index_ = nullptr;
    uint64_t generation_ = 0;
  };

  /// Snapshot-cache slots per thread. A thread that reads more managers
  /// than this (or nests more leases) still gets exact answers; it just
  /// reloads the published pointer more often.
  static constexpr size_t kCacheSlots = 4;

  /// `source` produces consistent delta copies of the mutable index;
  /// `stale_query_budget` is the number of queries that may observe a
  /// stale snapshot before a rebuild is scheduled (the facade's
  /// snapshot_rebuild_after_queries knob); `rebuild_threads` bounds the
  /// per-rebuild pool that repacks dirty shards concurrently (<= 1
  /// packs serially and never spawns threads).
  SnapshotManager(Source source, RefreshPolicy policy,
                  size_t stale_query_budget, unsigned rebuild_threads = 1);
  ~SnapshotManager();

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  RefreshPolicy policy() const { return policy_; }

  /// Pins the currently published snapshot (empty before first publish).
  /// A copy of this thread's cached pointer (one refcount increment);
  /// never blocks on maintenance.
  Pinned Pin() const;

  /// Leases the currently published snapshot into `lease` (empty before
  /// first publish), releasing whatever it held. No refcount traffic on a
  /// cache hit; never blocks, never charges the staleness budget.
  void Borrow(Lease* lease) const;

  /// The query-path entry: charges `queries` observations against the
  /// staleness budget given the caller's current structural generation and
  /// leases into `lease` the snapshot those queries should be served
  /// from, or leaves it empty when they should ride the mutable index
  /// instead (stale under kSync/kManual, or nothing published yet). Under
  /// kSync a spent budget rebuilds inline; under kBackground it schedules
  /// the worker and leases the current (possibly stale) snapshot
  /// immediately.
  void Acquire(uint64_t current_generation, size_t queries, Lease* lease);

  /// Charges `queries` stale observations against the budget WITHOUT any
  /// rebuild risk — never blocks, never builds. For callers that must
  /// not perform maintenance (deadline-bounded reads under kSync) but
  /// must keep the budget honest so the next Acquire that may rebuild
  /// does so promptly.
  void ChargeOnly(size_t queries);

  /// Synchronously builds and publishes a snapshot at least as fresh as
  /// `current_generation` (no-op if one is already published). Returns the
  /// published snapshot. Safe to race: concurrent refreshes build once.
  Pinned RefreshNow(uint64_t current_generation);

  /// Blocks until a snapshot of generation >= `generation` is published
  /// and returns it, scheduling a rebuild if needed. Under kSync/kManual
  /// this is RefreshNow; under kBackground it waits on the worker — the
  /// quiesce point used by tests and benches. The caller must guarantee
  /// the mutable index has reached `generation` (the facade's
  /// WaitForFreshSnapshot passes its own current generation).
  Pinned AwaitGeneration(uint64_t generation);

  /// Deadline-bounded AwaitGeneration: gives up waiting at `deadline` and
  /// returns whatever is published then (possibly stale or empty — the
  /// caller distinguishes a timeout by pin.generation < generation).
  /// Under kBackground the wait is a timed cv wait on the worker's
  /// publishes. Under kSync/kManual an already-expired deadline returns
  /// the current pin without building; an unexpired one admits the caller
  /// to the inline rebuild, which is the caller's own work and is not
  /// interrupted mid-build (the deadline bounds waiting on others, not
  /// the work the caller signed up to do).
  Pinned AwaitGeneration(uint64_t generation,
                         std::chrono::steady_clock::time_point deadline);

  /// Asks the background worker to publish a snapshot of generation >=
  /// `target_generation`. No-op if one is already published or requested.
  /// Spawns the worker on first use.
  void RequestRebuild(uint64_t target_generation);

  /// Generation of the published snapshot (0 before first publish).
  uint64_t PublishedGeneration() const {
    return published_generation_.load(std::memory_order_acquire);
  }

  /// True when the published snapshot reflects `generation`.
  bool FreshAt(uint64_t generation) const {
    return PublishedGeneration() == generation;
  }

  /// Snapshots built (inline + background).
  size_t Rebuilds() const { return rebuilds_.load(std::memory_order_relaxed); }

  /// Snapshots built by the worker thread.
  size_t BackgroundRebuilds() const {
    return background_rebuilds_.load(std::memory_order_relaxed);
  }

  /// Snapshots swapped out by a later publish (reclaimed once unpinned).
  size_t RetiredSnapshots() const {
    return retired_.load(std::memory_order_relaxed);
  }

  /// Shards repacked across all rebuilds (the paid work) vs. shards
  /// adopted from the previous snapshot by shared_ptr (the saved work).
  /// Their ratio is the delta protocol's effectiveness on the workload.
  size_t ShardsRepacked() const {
    return shards_repacked_.load(std::memory_order_relaxed);
  }
  size_t ShardsAdopted() const {
    return shards_adopted_.load(std::memory_order_relaxed);
  }

  /// Rebuilds that were pure adoptions (no dirty shard, no packing).
  size_t AdoptionPublishes() const {
    return adoption_publishes_.load(std::memory_order_relaxed);
  }

 private:
  /// A snapshot tagged with the generation it was built from. Published
  /// as shared_ptr<const Versioned>; Pinned aliases into `flat`.
  struct Versioned {
    uint64_t generation;
    FlatSpcIndex flat;
  };

  /// One entry of a thread's snapshot cache. Only its own thread touches
  /// it, so nothing here is atomic.
  struct CacheSlot {
    uint64_t manager = 0;     ///< owning manager's id_; 0 = unused
    uint64_t generation = 0;  ///< generation of `snapshot`
    uint32_t leases = 0;      ///< live Leases borrowing `snapshot`
    std::shared_ptr<const Versioned> snapshot;

    void Clear() {
      manager = 0;
      generation = 0;
      snapshot.reset();
    }
  };

  static Pinned PinOf(const std::shared_ptr<const Versioned>& v);

  struct ThreadCache;
  /// The calling thread's cache (kCacheSlots slots shared by every
  /// manager the thread reads).
  static ThreadCache& LocalCache();

  /// Copies published_ under its mutex (the cache-miss path).
  std::shared_ptr<const Versioned> LoadPublished() const;

  /// This thread's slot holding the published snapshot, refreshed from
  /// published_ on a miss (into an unleased slot: this manager's own,
  /// else an unused one, else round-robin). Null when nothing is
  /// published or every slot is leased.
  CacheSlot* CurrentSlot() const;

  /// Fills `lease` with an owning pin (the fallbacks that bypass the
  /// cache).
  static void Hold(Pinned pin, Lease* lease);

  /// Pulls a delta from source_ (relative to the published snapshot) and
  /// packs the next snapshot, adopting clean shards. Runs under
  /// rebuild_mu_ but with no state lock held (the build dominates the
  /// cost); rebuild_mu_ also guarantees the published snapshot cannot
  /// move between the delta copy and the publish.
  std::shared_ptr<const Versioned> BuildFromSource();

  /// Swaps `snap` in under published_mu_ if it is newer than the
  /// published one; resets the staleness budget and wakes
  /// AwaitGeneration waiters.
  void Publish(std::shared_ptr<const Versioned> snap);

  /// Background worker: build whenever requested_generation_ outruns the
  /// published generation, until stopped.
  void WorkerLoop();

  /// Spawns the worker thread once. Caller holds state_mu_.
  void EnsureWorkerLocked();

  const Source source_;
  const RefreshPolicy policy_;
  const size_t stale_query_budget_;
  /// Upper bound on the per-rebuild repack pool (see BuildFromSource);
  /// <= 1 packs serially and never spawns threads.
  const unsigned rebuild_threads_;

  /// Process-unique (never reused, unlike `this`), so a cache slot left
  /// by a destroyed manager can never validate against a new one.
  const uint64_t id_;

  /// The published snapshot, guarded by published_mu_. Readers copy it
  /// only on a cache miss (about once per publish per thread), so a
  /// plain mutex costs the read path nothing; Publish swaps it only for
  /// a newer generation.
  mutable std::mutex published_mu_;
  std::shared_ptr<const Versioned> published_;
  /// The cache-validation word every read loads. Stored once per
  /// publish, under published_mu_ after the swap; on its own line so
  /// miss-path locking does not evict it from readers.
  alignas(64) std::atomic<uint64_t> published_generation_{0};

  std::atomic<size_t> rebuilds_{0};
  std::atomic<size_t> background_rebuilds_{0};
  std::atomic<size_t> retired_{0};
  std::atomic<size_t> shards_repacked_{0};
  std::atomic<size_t> shards_adopted_{0};
  std::atomic<size_t> adoption_publishes_{0};

  /// Serializes snapshot construction so racing refreshes build once.
  std::mutex rebuild_mu_;

  /// Guards the staleness budget, the rebuild request, and worker
  /// lifecycle. Never held while copying or building.
  std::mutex state_mu_;
  std::condition_variable work_cv_;     ///< wakes the worker
  std::condition_variable publish_cv_;  ///< wakes AwaitGeneration
  size_t stale_queries_ = 0;
  uint64_t requested_generation_ = 0;
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace dspc

#endif  // DSPC_CORE_SNAPSHOT_MANAGER_H_
