#include "dspc/core/snapshot_manager.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "dspc/common/thread_pool.h"

namespace dspc {

namespace {

std::atomic<uint64_t> next_manager_id{1};

}  // namespace

/// A thread's snapshot cache: the slots plus the round-robin eviction
/// cursor. Destroyed at thread exit, dropping whatever it still caches.
struct SnapshotManager::ThreadCache {
  CacheSlot slots[kCacheSlots];
  size_t next_victim = 0;
};

SnapshotManager::ThreadCache& SnapshotManager::LocalCache() {
  thread_local ThreadCache cache;
  return cache;
}

SnapshotManager::SnapshotManager(Source source, RefreshPolicy policy,
                                 size_t stale_query_budget,
                                 unsigned rebuild_threads)
    : source_(std::move(source)),
      policy_(policy),
      stale_query_budget_(stale_query_budget),
      rebuild_threads_(rebuild_threads),
      id_(next_manager_id.fetch_add(1, std::memory_order_relaxed)) {}

SnapshotManager::~SnapshotManager() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  // Cache slots still naming this manager can never validate again (the
  // id is never reused); they go on eviction or at thread exit. They are
  // not cleared here: a manager destroyed during static destruction would
  // find this thread's cache already gone.
}

SnapshotManager::Pinned SnapshotManager::PinOf(
    const std::shared_ptr<const Versioned>& v) {
  if (v == nullptr) return {};
  // Aliasing ctor: the pin shares v's control block but points at the
  // index, so callers hold a plain FlatSpcIndex handle while the refcount
  // keeps the whole versioned snapshot alive.
  return {std::shared_ptr<const FlatSpcIndex>(v, &v->flat), v->generation};
}

SnapshotManager::CacheSlot* SnapshotManager::CurrentSlot() const {
  ThreadCache& cache = LocalCache();
  // Publication is strictly monotone, so (id_, generation) names exactly
  // one snapshot: a slot whose generation is the published one holds the
  // published snapshot (or, in the instant between Publish's swap and
  // its generation store, its predecessor — a read ordered just before
  // the publish).
  const uint64_t gen = published_generation_.load(std::memory_order_acquire);
  CacheSlot* victim = nullptr;
  for (CacheSlot& slot : cache.slots) {
    if (slot.manager != id_) continue;
    if (slot.generation == gen && slot.snapshot != nullptr) return &slot;
    if (slot.leases == 0) victim = &slot;
  }
  std::shared_ptr<const Versioned> snap = LoadPublished();
  if (snap == nullptr) return nullptr;
  if (victim == nullptr) {
    // A leased slot is never refreshed or evicted: its lease borrowed the
    // snapshot it holds.
    for (size_t i = 0; i < kCacheSlots && victim == nullptr; ++i) {
      if (cache.slots[i].manager == 0) victim = &cache.slots[i];
    }
    for (size_t i = 0; i < kCacheSlots && victim == nullptr; ++i) {
      CacheSlot& slot = cache.slots[(cache.next_victim + i) % kCacheSlots];
      if (slot.leases == 0) {
        victim = &slot;
        cache.next_victim = (cache.next_victim + i + 1) % kCacheSlots;
      }
    }
    if (victim == nullptr) return nullptr;
  }
  victim->manager = id_;
  victim->generation = snap->generation;
  victim->snapshot = std::move(snap);  // drops the slot's previous snapshot
  return victim;
}

std::shared_ptr<const SnapshotManager::Versioned>
SnapshotManager::LoadPublished() const {
  std::lock_guard<std::mutex> lock(published_mu_);
  return published_;
}

void SnapshotManager::Hold(Pinned pin, Lease* lease) {
  lease->index_ = pin.snapshot.get();
  lease->generation_ = pin.generation;
  lease->owned_ = std::move(pin.snapshot);
}

SnapshotManager::Pinned SnapshotManager::Pin() const {
  if (const CacheSlot* slot = CurrentSlot()) return PinOf(slot->snapshot);
  return PinOf(LoadPublished());
}

void SnapshotManager::Borrow(Lease* lease) const {
  lease->Release();
  CacheSlot* slot = CurrentSlot();
  if (slot == nullptr) {
    Hold(PinOf(LoadPublished()), lease);
    return;
  }
  ++slot->leases;
  lease->manager_ = this;
  lease->slot_ = slot;
  lease->index_ = &slot->snapshot->flat;
  lease->generation_ = slot->generation;
}

void SnapshotManager::Acquire(uint64_t current_generation, size_t queries,
                              Lease* lease) {
  Borrow(lease);
  if (*lease && lease->generation() == current_generation) return;

  switch (policy_) {
    case RefreshPolicy::kManual:
      // Stale (or nothing published): the caller rides the mutable index;
      // only explicit refreshes publish.
      lease->Release();
      return;

    case RefreshPolicy::kSync: {
      bool rebuild = false;
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        stale_queries_ += queries;
        rebuild = stale_queries_ >= stale_query_budget_;
      }
      lease->Release();
      if (rebuild) Hold(RefreshNow(current_generation), lease);
      return;
    }

    case RefreshPolicy::kBackground: {
      bool request = false;
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        stale_queries_ += queries;
        if (stale_queries_ >= stale_query_budget_) {
          stale_queries_ = 0;
          request = true;
        }
      }
      if (request) RequestRebuild(current_generation);
      // Serve the leased snapshot even though it is stale — bounded
      // staleness is the policy's contract. Empty only before the first
      // publish (the facade publishes eagerly at construction).
      return;
    }
  }
  lease->Release();
}

void SnapshotManager::ChargeOnly(size_t queries) {
  std::lock_guard<std::mutex> lock(state_mu_);
  stale_queries_ += queries;
}

SnapshotManager::Pinned SnapshotManager::RefreshNow(
    uint64_t current_generation) {
  std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
  // A racing refresh may have published while we waited for the build
  // lock; don't build the same generation twice.
  if (const Pinned cur = Pin();
      cur && cur.generation >= current_generation) {
    return cur;
  }
  auto snap = BuildFromSource();
  Publish(snap);
  return PinOf(snap);
}

SnapshotManager::Pinned SnapshotManager::AwaitGeneration(uint64_t generation) {
  if (policy_ != RefreshPolicy::kBackground) return RefreshNow(generation);
  RequestRebuild(generation);
  std::unique_lock<std::mutex> lock(state_mu_);
  publish_cv_.wait(lock, [&] {
    return stop_ ||
           published_generation_.load(std::memory_order_acquire) >= generation;
  });
  return Pin();
}

SnapshotManager::Pinned SnapshotManager::AwaitGeneration(
    uint64_t generation, std::chrono::steady_clock::time_point deadline) {
  if (policy_ != RefreshPolicy::kBackground) {
    // An expired deadline refuses up front; otherwise the caller pays the
    // inline rebuild it asked for (see the header contract).
    if (std::chrono::steady_clock::now() >= deadline &&
        published_generation_.load(std::memory_order_acquire) < generation) {
      return Pin();
    }
    return RefreshNow(generation);
  }
  RequestRebuild(generation);
  std::unique_lock<std::mutex> lock(state_mu_);
  publish_cv_.wait_until(lock, deadline, [&] {
    return stop_ ||
           published_generation_.load(std::memory_order_acquire) >= generation;
  });
  // Timed out, stopped, or satisfied: in every case the published pin is
  // the answer; the caller reads its generation to tell which.
  return Pin();
}

void SnapshotManager::RequestRebuild(uint64_t target_generation) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (stop_) return;
  if (published_generation_.load(std::memory_order_acquire) >=
      target_generation) {
    return;
  }
  if (target_generation > requested_generation_) {
    requested_generation_ = target_generation;
  }
  EnsureWorkerLocked();
  work_cv_.notify_one();
}

std::shared_ptr<const SnapshotManager::Versioned>
SnapshotManager::BuildFromSource() {
  // rebuild_mu_ (held by every caller) serializes builds, so the snapshot
  // read here is exactly what Publish will swap out.
  const std::shared_ptr<const Versioned> prev = LoadPublished();
  const FlatSpcIndex* prev_flat = prev ? &prev->flat : nullptr;
  // Delta copy; the source owns the locking and the dirty bookkeeping.
  FlatSpcIndex::IndexDelta delta = source_(prev_flat);
  const size_t dirty = delta.dirty.size();
  // The repack pool lives only for this rebuild and is sized to the
  // dirty work: thread spawn is microseconds against millisecond-scale
  // packs, and no facade ever holds parked threads between refreshes.
  std::unique_ptr<ThreadPool> pool;
  if (rebuild_threads_ > 1 && dirty > 1) {
    pool = std::make_unique<ThreadPool>(
        std::min<size_t>(rebuild_threads_, dirty));
  }
  const bool adoption = prev_flat != nullptr && !delta.full && dirty == 0;
  const uint64_t generation = delta.generation;
  auto snap = std::make_shared<Versioned>(
      Versioned{generation,
                FlatSpcIndex::Rebuild(prev_flat, std::move(delta),
                                      pool.get())});
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  // Count adoption from arena identity (not the delta's dirty list), so
  // the metrics stay honest even if the rebuild had to repack clean
  // shards (the packed->wide fallback).
  size_t adopted = 0;
  if (prev_flat != nullptr &&
      snap->flat.LayoutStamp() == prev_flat->LayoutStamp()) {
    for (size_t i = 0; i < snap->flat.NumShards(); ++i) {
      if (snap->flat.SharesShardWith(*prev_flat, i)) ++adopted;
    }
  }
  shards_repacked_.fetch_add(snap->flat.NumShards() - adopted,
                             std::memory_order_relaxed);
  shards_adopted_.fetch_add(adopted, std::memory_order_relaxed);
  if (adoption) adoption_publishes_.fetch_add(1, std::memory_order_relaxed);
  return snap;
}

void SnapshotManager::Publish(std::shared_ptr<const Versioned> snap) {
  std::shared_ptr<const Versioned> old;
  {
    std::lock_guard<std::mutex> lock(published_mu_);
    // Builds are serialized under rebuild_mu_ and each one copies at a
    // generation at least as fresh as the snapshot it read, so
    // publication is strictly monotone by construction — a
    // non-increasing generation here is a protocol bug (e.g. a source
    // returning stale generations), not a benign race.
    assert(published_ == nullptr ||
           snap->generation > published_->generation);
    // Monotone swap: a slow build must never replace a newer snapshot.
    if (published_ != nullptr && published_->generation >= snap->generation) {
      return;
    }
    old = std::exchange(published_, snap);
    published_generation_.store(snap->generation, std::memory_order_release);
  }
  if (old != nullptr) retired_.fetch_add(1, std::memory_order_relaxed);
  {
    // Lock between the store and the notify so AwaitGeneration cannot
    // miss the wakeup; also reset the staleness budget for the fresh
    // snapshot.
    std::lock_guard<std::mutex> lock(state_mu_);
    stale_queries_ = 0;
  }
  publish_cv_.notify_all();
  // `old` drops here, outside every lock; it is freed unless a pin or a
  // reader thread's cache slot still holds it.
}

void SnapshotManager::WorkerLoop() {
  std::unique_lock<std::mutex> lock(state_mu_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return stop_ ||
             requested_generation_ >
                 published_generation_.load(std::memory_order_acquire);
    });
    if (stop_) {
      // Wake any AwaitGeneration waiter stuck behind a request that will
      // now never be built.
      publish_cv_.notify_all();
      return;
    }
    const uint64_t target = requested_generation_;
    lock.unlock();
    {
      std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
      // Mirror RefreshNow's guard: a concurrent manual refresh may have
      // published this generation while we waited for the build lock,
      // and publication is strictly monotone — never build it twice.
      if (published_generation_.load(std::memory_order_acquire) < target) {
        auto snap = BuildFromSource();
        background_rebuilds_.fetch_add(1, std::memory_order_relaxed);
        Publish(snap);
      }
    }
    lock.lock();
    // If writers advanced past the copy we just published, the predicate
    // still holds and the loop builds again.
  }
}

void SnapshotManager::EnsureWorkerLocked() {
  if (worker_.joinable()) return;
  worker_ = std::thread([this] { WorkerLoop(); });
}

}  // namespace dspc
