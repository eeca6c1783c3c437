#include "dspc/api/spc_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "dspc/api/read_admission.h"

namespace dspc {

// ServiceMetrics' read cube (service_metrics.h) folds the raw values of
// these enums, which it only sees as opaque declarations — pin them.
static_assert(static_cast<size_t>(ServedFrom::kSnapshot) == 0 &&
                  static_cast<size_t>(ServedFrom::kLiveIndex) == 1,
              "read cube encodes ServedFrom as {snapshot=0, live=1}");
static_assert(static_cast<size_t>(Consistency::kFresh) == 0 &&
                  static_cast<size_t>(Consistency::kSnapshot) == 1 &&
                  static_cast<size_t>(Consistency::kBoundedStaleness) == 2,
              "read cube indexes queries_by_mode by Consistency's value");

namespace {

[[gnu::cold, gnu::noinline]] Status LiveReadDeadlineExceeded() {
  return Status::DeadlineExceeded(
      "live-index read could not acquire the lock before the deadline "
      "(a writer holds it); retry, extend the timeout, or relax to "
      "kSnapshot/kBoundedStaleness");
}

/// The lattice's view of a service whose live index is at `live`. A
/// replica's inner service (`primary_durable` set) counts staleness from
/// the primary's durably-acked generation and replays tokens it did not
/// mint; a primary is its own authority.
[[gnu::always_inline]] inline ReadFrontier FrontierAt(
    uint64_t live, const std::atomic<uint64_t>* primary_durable) {
  if (primary_durable == nullptr) [[likely]] return {live, live, true};
  return {std::max(live, primary_durable->load(std::memory_order_acquire)),
          live, false};
}

/// Open/OpenWithState preamble: refuses unusable options, creates the
/// directory and plans recovery from whatever it holds.
Status PrepareDurableDir(const DurabilityOptions& durability,
                         const DynamicSpcOptions& options, FileSystem** fs,
                         RecoveryPlan* plan) {
  if (durability.dir.empty()) {
    return Status::InvalidArgument("DurabilityOptions::dir must be set");
  }
  if (Status st = RequireNoLazyRebuild(options, "durable"); !st.ok()) {
    return st;
  }
  *fs = durability.fs != nullptr ? durability.fs : FileSystem::Default();
  if (Status st = (*fs)->CreateDir(durability.dir); !st.ok()) return st;
  return PlanRecovery(*fs, durability.dir, plan);
}

/// Write admission shared by both ApplyUpdates paths: each update with an
/// endpoint outside [0, n) gets a kRejected report in `resp`; the rest go
/// to `admitted`, with their input positions in `position`.
void AdmitUpdates(std::span<const Update> updates, size_t n,
                  UpdateResponse* resp, std::vector<Update>* admitted,
                  std::vector<size_t>* position) {
  resp->reports.resize(updates.size());
  admitted->reserve(updates.size());
  position->reserve(updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    const Edge& e = updates[i].edge;
    if (static_cast<size_t>(e.u) >= n || static_cast<size_t>(e.v) >= n) {
      resp->reports[i].outcome = WriteReport::Outcome::kRejected;
      resp->reports[i].reason =
          "endpoint vertex id outside [0, NumVertices())";
      continue;
    }
    admitted->push_back(updates[i]);
    position->push_back(i);
  }
}

/// Places the engine's reports for the admitted updates back at their
/// input positions and tallies the outcomes of the whole call.
void GatherReports(const std::vector<WriteReport>& sub,
                   const std::vector<size_t>& position, UpdateResponse* resp) {
  for (size_t j = 0; j < sub.size(); ++j) {
    resp->reports[position[j]] = sub[j];
  }
  for (const WriteReport& report : resp->reports) {
    switch (report.outcome) {
      case WriteReport::Outcome::kApplied:
        ++resp->applied;
        break;
      case WriteReport::Outcome::kNoOp:
        ++resp->noops;
        break;
      case WriteReport::Outcome::kRejected:
        ++resp->rejected;
        break;
    }
  }
}

/// Sampled read-latency timing (DESIGN.md §10). Two steady_clock reads
/// per timed call would blow the service's ~2% overhead budget on the
/// per-query hot path, so single queries time 1-in-64 calls (a
/// thread_local counter decides; uniform sampling leaves percentiles
/// unbiased) while batches — whose work amortizes the clocks — always
/// time. Armed==false costs one increment and one predictable branch.
struct LatencyTimer {
  explicit LatencyTimer(bool arm) : armed(arm) {
    if (armed) [[unlikely]] {
      start = std::chrono::steady_clock::now();
    }
  }
  void Finish(ServiceMetrics* metrics, Consistency mode) const {
    if (!armed) [[likely]] {
      return;
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start);
    metrics->RecordReadLatency(mode, static_cast<uint64_t>(ns.count()));
  }
  bool armed;
  std::chrono::steady_clock::time_point start;
};

bool SampleReadLatency() {
  thread_local uint32_t tick = 0;
  return (++tick & 63u) == 0;
}

}  // namespace

SpcService::SpcService(Graph graph, const DynamicSpcOptions& options)
    : engine_(std::move(graph), options) {
  if (engine_.options().pair_cache.enabled) {
    pair_cache_ = std::make_unique<PairCache>(engine_.options().pair_cache);
  }
}

SpcService::SpcService(Graph graph, SpcIndex index,
                       const DynamicSpcOptions& options)
    : engine_(std::move(graph), std::move(index), options) {
  if (engine_.options().pair_cache.enabled) {
    pair_cache_ = std::make_unique<PairCache>(engine_.options().pair_cache);
  }
}

SpcService::~SpcService() {
  if (fs_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(dur_mu_);
    stop_checkpointer_ = true;
  }
  checkpoint_cv_.notify_all();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  if (wal_) (void)wal_->Close();  // clean close syncs: shutdown ≠ crash
}

StatusOr<std::unique_ptr<SpcService>> SpcService::Open(
    Graph bootstrap, const DurabilityOptions& durability,
    const DynamicSpcOptions& options) {
  FileSystem* fs = nullptr;
  RecoveryPlan plan;
  if (Status st = PrepareDurableDir(durability, options, &fs, &plan);
      !st.ok()) {
    return st;
  }

  std::unique_ptr<SpcService> service;
  if (plan.has_checkpoint) {
    DynamicSpcOptions engine_options = options;
    engine_options.initial_generation = plan.checkpoint.generation;
    service.reset(new SpcService(std::move(plan.checkpoint.graph),
                                 plan.checkpoint.index.Unpack(),
                                 engine_options));
    for (const ReplayOp& op : plan.ops) {
      if (Status st = ApplyReplayOp(&service->engine_, op); !st.ok()) {
        return st;
      }
    }
  } else {
    service.reset(new SpcService(std::move(bootstrap), options));
  }
  service->recovery_report_ = plan.report;
  if (!plan.has_checkpoint) {
    service->recovery_report_.recovered_generation = service->Generation();
  }
  service->metrics_.RecordRecovery(plan.report.replayed,
                                   plan.report.truncated_tail_bytes);
  service->fs_ = fs;
  if (Status st = service->StartDurability(durability, plan); !st.ok()) {
    return st;
  }
  return service;
}

StatusOr<std::unique_ptr<SpcService>> SpcService::OpenWithState(
    Graph graph, SpcIndex index, uint64_t generation,
    const DurabilityOptions& durability, const DynamicSpcOptions& options) {
  FileSystem* fs = nullptr;
  RecoveryPlan plan;
  if (Status st = PrepareDurableDir(durability, options, &fs, &plan);
      !st.ok()) {
    return st;
  }
  // Adopting external state over an existing durable lineage would
  // silently discard whatever that lineage acknowledged. PlanRecovery
  // already refuses the dangerous MANIFEST-less shapes with kDataLoss;
  // anything it would recover (a MANIFEST) is equally off limits here.
  if (plan.has_checkpoint) {
    return Status::InvalidArgument(
        "target directory already holds durable state (recover it with "
        "SpcService::Open, or point OpenWithState at a fresh directory): " +
        durability.dir);
  }
  DynamicSpcOptions engine_options = options;
  engine_options.initial_generation = generation;
  std::unique_ptr<SpcService> service(
      new SpcService(std::move(graph), std::move(index), engine_options));
  service->recovery_report_ = plan.report;
  service->recovery_report_.recovered_generation = generation;
  service->fs_ = fs;
  if (Status st = service->StartDurability(durability, plan); !st.ok()) {
    return st;
  }
  return service;
}

StatusOr<std::unique_ptr<WalShipper>> SpcService::NewShipper(
    Transport* transport, WalShipper::Options base) {
  if (fs_ == nullptr) {
    return Status::NotSupported(
        "WAL shipping needs a durable service (SpcService::Open)");
  }
  if (transport == nullptr) {
    return Status::InvalidArgument("NewShipper requires a transport");
  }
  WalShipper::Options options = std::move(base);
  options.transport = transport;
  options.retention = checkpointer_.get();
  options.synced_tip = [this] { return WalSyncedTip(); };
  if (!options.on_checkpoint_shipped) {
    options.on_checkpoint_shipped = [this] {
      metrics_.RecordCheckpointShipped();
    };
  }
  if (!options.on_segment_started) {
    options.on_segment_started = [this] { metrics_.RecordSegmentShipped(); };
  }
  if (!options.on_bytes_shipped) {
    options.on_bytes_shipped = [this](uint64_t bytes) {
      metrics_.RecordShippedBytes(bytes);
    };
  }
  if (!options.on_reconnect) {
    options.on_reconnect = [this] { metrics_.RecordReplReconnect(); };
  }
  if (!options.on_backoff_sleep) {
    options.on_backoff_sleep = [this] { metrics_.RecordReplBackoffSleep(); };
  }
  return std::make_unique<WalShipper>(fs_, dur_options_.dir, options);
}

std::pair<uint64_t, uint64_t> SpcService::WalSyncedTip() {
  std::lock_guard<std::mutex> lock(dur_mu_);
  if (!wal_) return {0, 0};
  return {wal_->seq(), wal_->SyncedBytes()};
}

Status SpcService::StartDurability(const DurabilityOptions& durability,
                                   const RecoveryPlan& plan) {
  const uint64_t wal_seq = plan.next_wal_seq;
  dur_options_ = durability;
  dur_options_.fs = fs_;
  checkpointer_ = std::make_unique<Checkpointer>(fs_, durability.dir);
  WalWriter::Options wal_options;
  wal_options.sync = durability.sync;
  wal_options.flush_interval = durability.flush_interval;
  wal_options.on_sync = [this] { metrics_.RecordWalSync(); };
  auto wal = WalWriter::Create(
      fs_, durability.dir + "/" + WalSegmentFileName(wal_seq), wal_seq,
      engine_.Generation(), wal_options);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);
  // Publish a checkpoint of the just-opened state so the directory is
  // immediately self-contained: replayed segments (or a crashed first
  // open's strays) are covered and garbage-collected right here, and
  // WAL growth restarts from zero after every recovery. The fallback
  // this publish retains is the checkpoint recovery actually loaded —
  // NOT the on-disk MANIFEST's current entry, which after a fallback
  // recovery names exactly the corrupt checkpoint (trusting it would
  // make GC delete the proven-good one and retain the unreadable one).
  const FlatSpcIndex flat(engine_.index());
  CheckpointRef validated_prev;
  if (plan.has_checkpoint) {
    validated_prev.generation = plan.checkpoint.generation;
    validated_prev.wal_seq = plan.checkpoint_wal_seq;
  }
  if (Status st = checkpointer_->Publish(
          engine_.graph(), flat, engine_.Generation(), wal_seq,
          plan.has_checkpoint ? &validated_prev : nullptr);
      !st.ok()) {
    return st;
  }
  metrics_.RecordCheckpoint();
  if (dur_options_.checkpoint_wal_bytes != 0 ||
      dur_options_.checkpoint_wal_records != 0) {
    checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  return Status::OK();
}

Status SpcService::ValidateVertex(Vertex v, const char* what) const {
  const size_t n = engine_.NumVertices();
  if (static_cast<size_t>(v) < n) return Status::OK();
  metrics_.RecordRejected(Status::Code::kInvalidArgument);
  return BadVertex(what, v, n);
}

Status SpcService::RefuseVertex(const ReadOptions& options,
                                Status bad) const {
  // A replica can be asked for a vertex the primary created but the
  // replica has not applied yet. When the lattice refuses on the live
  // source alone (a token not yet applied, a live index beyond max_lag),
  // that retryable refusal is the answer rather than kInvalidArgument.
  const ReadFrontier frontier =
      FrontierAt(engine_.Generation(), primary_durable_);
  const ReadVerdict verdict = AdmitRead(options, frontier, 0);
  if (verdict != ReadVerdict::kServeLive &&
      verdict != ReadVerdict::kNoSnapshot) {
    return RefuseRead(&metrics_, verdict, options, frontier, 0);
  }
  metrics_.RecordRejected(Status::Code::kInvalidArgument);
  return bad;
}

/// kSnapshot's lease, out of line so RouteRead stays small enough to
/// inline. It never blocks and never performs maintenance.
Status SpcService::LeaseSnapshotRead(uint64_t gen, size_t queries,
                                     SnapshotManager::Lease* lease) const {
  // With snapshots disabled no publish can ever happen: that is a
  // configuration error, not a transient one — kUnavailable would invite
  // a retry loop that can never succeed.
  if (!engine_.options().snapshot.enabled) {
    metrics_.RecordRejected(Status::Code::kNotSupported);
    return Status::NotSupported(
        "kSnapshot reads need snapshots enabled on this service "
        "(SnapshotOptions::enabled)");
  }
  // Under kBackground the lease still charges the staleness budget so the
  // worker keeps the snapshot converging even for pure-snapshot
  // workloads; under kSync/kManual Acquire could rebuild inline or
  // withhold a stale snapshot, so take the free borrow instead (nothing
  // publishes there until other traffic or WaitForSnapshot does).
  if (engine_.snapshots()->policy() == RefreshPolicy::kBackground) {
    engine_.AcquireSnapshot(gen, queries, lease);
  } else {
    engine_.BorrowSnapshot(lease);
  }
  return Status::OK();
}

Status SpcService::RouteRead(const ReadOptions& options, size_t queries,
                             Vertex max_vertex, uint64_t* authority,
                             SnapshotManager::Lease* lease) const {
  const uint64_t gen = engine_.Generation();
  const ReadFrontier frontier = FrontierAt(gen, primary_durable_);
  *authority = frontier.authority;
  if (TokenAhead(options, frontier)) [[unlikely]] {
    return RefuseRead(&metrics_, AdmitRead(options, frontier, 0), options,
                      frontier, 0);
  }

  // Lease acquisition. kFresh / kBoundedStaleness acquire budget-charging,
  // so rebuilds keep getting scheduled.
  if (options.consistency == Consistency::kSnapshot) {
    if (Status st = LeaseSnapshotRead(gen, queries, lease); !st.ok()) {
      return st;
    }
  } else if (options.timeout >= std::chrono::nanoseconds::zero() &&
             engine_.options().snapshot.enabled &&
             engine_.snapshots()->policy() == RefreshPolicy::kSync)
      [[unlikely]] {
    // Under kSync a budget-crossing Acquire rebuilds inline — an
    // unbounded wait on the writer lock inside the snapshot source. A
    // deadline-bounded read must never perform maintenance: take the
    // free borrow (served only if the lattice admits it) and leave the
    // inline rebuild to the next untimed read — but still charge the
    // staleness budget, so an all-timed workload keeps the rebuild due
    // instead of pinning staleness forever.
    engine_.BorrowSnapshot(lease);
    if (!*lease || lease->generation() < gen) {
      engine_.ChargeSnapshotBudget(queries);
    }
  } else {
    engine_.AcquireSnapshot(gen, queries, lease);
  }

  // A snapshot that predates a requested vertex cannot serve the read.
  const uint64_t snapshot =
      *lease && max_vertex < (*lease)->NumVertices() ? lease->generation()
                                                     : 0;
  const ReadVerdict verdict = AdmitRead(options, frontier, snapshot);
  if (verdict == ReadVerdict::kServeSnapshot) [[likely]] {
    // Same pacing as the engine's own query path: every snapshot-served
    // read donates a timeslice while a writer is mid-update (or the
    // snapshot trails too far), current lease or not.
    engine_.YieldForMaintenance(gen, snapshot);
    return Status::OK();
  }
  lease->Release();
  if (verdict == ReadVerdict::kServeLive) return Status::OK();
  return RefuseRead(&metrics_, verdict, options, frontier, snapshot);
}

StatusOr<QueryResponse> SpcService::Query(Vertex s, Vertex t,
                                          const ReadOptions& options) const {
  // One admission check for both endpoints: this sits on the hot path,
  // so read the id-space bound once.
  const size_t n = engine_.NumVertices();
  if (static_cast<size_t>(s) >= n || static_cast<size_t>(t) >= n)
      [[unlikely]] {
    return RefuseVertex(options, BadEndpoint(s, t, n));
  }

  const LatencyTimer timer(SampleReadLatency());
  uint64_t authority = 0;
  SnapshotManager::Lease lease;
  if (Status st = RouteRead(options, 1, std::max(s, t), &authority, &lease);
      !st.ok()) [[unlikely]] {
    return st;
  }

  // Responses are built fully formed in the return slot (no default
  // construction + field-by-field overwrite): this path runs per query.
  if (lease) {
    const uint64_t served = lease.generation();
    const uint64_t staleness = Staleness(authority, served);
    metrics_.RecordRead(options.consistency, ServedFrom::kSnapshot,
                        staleness, 1, false);
    // Hot-pair cache (DESIGN.md §15): keyed by the generation of the
    // snapshot that is ABOUT to serve this read, so a hit is by
    // construction the exact answer that snapshot would compute —
    // min_generation / token semantics were already enforced by
    // RouteRead when it picked the lease. A miss computes and caches.
    SpcResult result;
    if (pair_cache_ == nullptr ||
        !pair_cache_->Lookup(s, t, served, &result)) {
      result = lease->Query(s, t);
      if (pair_cache_ != nullptr) pair_cache_->Insert(s, t, served, result);
    }
    StatusOr<QueryResponse> out(std::in_place, result, served, staleness,
                                ServedFrom::kSnapshot);
    timer.Finish(&metrics_, options.consistency);
    return out;
  }
  // Live serving — the one read path that can wait on a writer, so the
  // one place the per-call deadline binds. The response generation is
  // read under the lock: a write that finished while we waited is in
  // the answer, so the admission-time value would understate it.
  SpcResult result;
  uint64_t generation = 0;
  if (options.timeout >= std::chrono::nanoseconds::zero()) [[unlikely]] {
    if (!engine_.QueryLiveBefore(s, t, SaturatingDeadline(options.timeout),
                                 &result, &generation)) {
      metrics_.RecordReadDeadlineMiss();
      return LiveReadDeadlineExceeded();
    }
  } else {
    result = engine_.QueryLive(s, t, &generation);
  }
  const uint64_t staleness = Staleness(authority, generation);
  metrics_.RecordRead(options.consistency, ServedFrom::kLiveIndex, staleness,
                      1, false);
  timer.Finish(&metrics_, options.consistency);
  return StatusOr<QueryResponse>(std::in_place, result, generation,
                                 staleness, ServedFrom::kLiveIndex);
}

StatusOr<BatchQueryResponse> SpcService::QueryBatch(
    std::span<const VertexPair> pairs, const ReadOptions& options) const {
  const StatusOr<Vertex> max_vertex = CheckPairs(pairs, engine_.NumVertices());
  if (!max_vertex.ok()) return RefuseVertex(options, max_vertex.status());

  // Batches always time: the call amortizes the two clock reads.
  const LatencyTimer timer(true);
  uint64_t authority = 0;
  SnapshotManager::Lease lease;
  if (Status st =
          RouteRead(options, pairs.size(), *max_vertex, &authority, &lease);
      !st.ok()) {
    return st;
  }

  StatusOr<BatchQueryResponse> out(std::in_place);
  if (lease) {
    // Batches bypass the pair cache deliberately: the parallel fan-out
    // below would serialize on the cache's shard locks, and batch
    // traffic has none of the single-read repetition the cache exists
    // for.
    //
    // Snapshot-served batches hold no lock, so queueing on the shared
    // pool's serialized regions can only delay them, never stall a
    // writer or void the deadline contract (which bounds the
    // writer-lock wait only) — timed and untimed batches alike use the
    // shared pool: no per-batch thread spawns on the serving path.
    out->results = lease->QueryManyParallel(
        pairs, options.threads,
        engine_.PoolForBatch(pairs.size(), options.threads));
    out->generation = lease.generation();
    out->served_from = ServedFrom::kSnapshot;
  } else {
    if (options.timeout >= std::chrono::nanoseconds::zero()) [[unlikely]] {
      if (!engine_.BatchQueryLiveBefore(pairs, options.threads,
                                        SaturatingDeadline(options.timeout),
                                        &out->results, &out->generation)) {
        metrics_.RecordReadDeadlineMiss();
        return LiveReadDeadlineExceeded();
      }
    } else {
      out->results =
          engine_.BatchQueryLive(pairs, options.threads, &out->generation);
    }
    out->served_from = ServedFrom::kLiveIndex;
  }
  out->staleness = Staleness(authority, out->generation);
  metrics_.RecordRead(options.consistency, out->served_from, out->staleness,
                      pairs.size(), true);
  timer.Finish(&metrics_, options.consistency);
  return out;
}

StatusOr<UpdateResponse> SpcService::ApplyUpdates(
    std::span<const Update> updates, const WriteOptions& write) {
  if (fs_ == nullptr) return ApplyUpdatesPlain(updates);
  return ApplyUpdatesDurable(updates, write);
}

StatusOr<UpdateResponse> SpcService::ApplyUpdatesPlain(
    std::span<const Update> updates) {
  // Admission is per update: out-of-range endpoints are rejected
  // individually (kRejected report) while the valid remainder applies.
  StatusOr<UpdateResponse> out(std::in_place);
  UpdateResponse& resp = *out;
  std::vector<Update> admitted;
  std::vector<size_t> position;
  AdmitUpdates(updates, engine_.NumVertices(), &resp, &admitted, &position);
  std::vector<WriteReport> sub;
  resp.stats = engine_.ApplyBatch(admitted, &sub);
  GatherReports(sub, position, &resp);
  resp.token.generation = engine_.Generation();
  metrics_.RecordWrite(updates.size(), resp.applied, resp.noops,
                       resp.rejected);
  return out;
}

StatusOr<UpdateResponse> SpcService::ApplyUpdatesDurable(
    std::span<const Update> updates, const WriteOptions& write) {
  // Hard batch admission cap: an intent record larger than
  // kWalMaxRecordBytes would be refused by the WAL (and, were it ever
  // written, read back as a torn tail — losing an acknowledged write at
  // recovery). Refused up front, before any per-update work.
  if (updates.size() > kWalMaxBatchUpdates) {
    metrics_.RecordRejected(Status::Code::kInvalidArgument);
    return Status::InvalidArgument(
        "durable batch of " + std::to_string(updates.size()) +
        " updates exceeds the per-call cap of " +
        std::to_string(kWalMaxBatchUpdates) +
        " (its WAL intent record would not fit one frame); split the "
        "batch");
  }
  StatusOr<UpdateResponse> out(std::in_place);
  UpdateResponse& resp = *out;
  std::vector<Update> admitted;
  std::vector<size_t> position;
  std::vector<WriteReport> sub;
  uint64_t commit_offset = 0;
  std::shared_ptr<WalWriter> wal;
  {
    // dur_mu_ serializes the whole durable write path: WAL order and
    // engine apply order are the same order by construction, which is
    // what makes replay deterministic. It is taken BEFORE the engine's
    // writer lock (inside ApplyBatch), never the other way around.
    std::lock_guard<std::mutex> lock(dur_mu_);
    if (dur_failed_) {
      metrics_.RecordRejected(dur_error_.code());
      return dur_error_;
    }
    AdmitUpdates(updates, engine_.NumVertices(), &resp, &admitted, &position);
    resp.token.generation = engine_.Generation();
    if (!admitted.empty()) {
      // Intent before apply, commit (with per-update outcomes) after:
      // recovery replays only paired records, so a crash anywhere in
      // between loses exactly the unacknowledged tail and nothing else.
      WalRecord intent;
      intent.kind = WalRecord::Kind::kBatch;
      intent.seq = NextBatchSeqLocked();
      intent.generation = engine_.Generation();
      intent.updates = admitted;
      if (auto off = AppendWalLocked(EncodeWalRecord(intent)); !off.ok()) {
        return off.status();
      }
      resp.stats = engine_.ApplyBatch(admitted, &sub);
      WalRecord commit;
      commit.kind = WalRecord::Kind::kCommit;
      commit.seq = intent.seq;
      commit.generation = engine_.Generation();
      commit.outcomes.resize(sub.size());
      for (size_t j = 0; j < sub.size(); ++j) {
        commit.outcomes[j] = sub[j].applied() ? 1 : 0;
      }
      auto off = AppendWalLocked(EncodeWalRecord(commit));
      resp.token.generation = commit.generation;
      // The engine applied either way, but a write whose commit record
      // never reached the log must not be acknowledged: recovery would
      // drop it. Fail the call (and the service — AppendWalLocked has
      // already latched fail-stop).
      if (!off.ok()) return off.status();
      commit_offset = *off;
      wal = wal_;
    }
    MaybeTriggerCheckpointLocked();
  }

  GatherReports(sub, position, &resp);
  metrics_.RecordWrite(updates.size(), resp.applied, resp.noops,
                       resp.rejected);
  if (write.durable) {
    if (wal) {
      metrics_.RecordWalDurableWait();
      if (Status st = WaitDurableOffset(wal, commit_offset); !st.ok()) {
        return st;
      }
    }
    // Nothing admitted ⇒ nothing to persist; trivially durable.
    resp.token.durable = true;
  }
  return out;
}

StatusOr<UpdateResponse> SpcService::InsertEdge(Vertex u, Vertex v,
                                                const WriteOptions& write) {
  // Single-edge calls keep the strict contract: a bad endpoint fails the
  // call (there is no partial batch a caller could still want).
  if (Status st = ValidateVertex(u, "edge"); !st.ok()) return st;
  if (Status st = ValidateVertex(v, "edge"); !st.ok()) return st;
  const Update update = Update::Insert(u, v);
  return ApplyUpdates({&update, 1}, write);
}

StatusOr<UpdateResponse> SpcService::RemoveEdge(Vertex u, Vertex v,
                                                const WriteOptions& write) {
  if (Status st = ValidateVertex(u, "edge"); !st.ok()) return st;
  if (Status st = ValidateVertex(v, "edge"); !st.ok()) return st;
  const Update update = Update::Delete(u, v);
  return ApplyUpdates({&update, 1}, write);
}

AddVertexResponse SpcService::AddVertex(const WriteOptions& write) {
  AddVertexResponse resp;
  if (fs_ == nullptr) {
    resp.vertex = engine_.AddVertex();
    resp.token.generation = engine_.Generation();
    metrics_.RecordWrite(1, 1, 0, 0);
    return resp;
  }
  uint64_t offset = 0;
  std::shared_ptr<WalWriter> wal;
  {
    std::lock_guard<std::mutex> lock(dur_mu_);
    if (dur_failed_) {
      metrics_.RecordRejected(dur_error_.code());
      return resp;  // vertex stays kInvalidVertex: the refusal signal
    }
    // AddVertex self-commits: under dur_mu_ serialization both record
    // fields are exact predictions (the new id is the current count,
    // the generation bumps by exactly one), so logging before the apply
    // still lets replay cross-check them.
    WalRecord rec;
    rec.kind = WalRecord::Kind::kAddVertex;
    rec.generation = engine_.Generation() + 1;
    rec.vertex = static_cast<Vertex>(engine_.NumVertices());
    auto off = AppendWalLocked(EncodeWalRecord(rec));
    if (!off.ok()) return resp;
    resp.vertex = engine_.AddVertex();
    resp.token.generation = engine_.Generation();
    offset = *off;
    wal = wal_;
    MaybeTriggerCheckpointLocked();
  }
  metrics_.RecordWrite(1, 1, 0, 0);
  if (write.durable) {
    metrics_.RecordWalDurableWait();
    if (WaitDurableOffset(wal, offset).ok()) resp.token.durable = true;
  }
  return resp;
}

StatusOr<UpdateResponse> SpcService::RemoveVertex(Vertex v,
                                                 const WriteOptions& write) {
  if (Status st = ValidateVertex(v, "vertex"); !st.ok()) return st;
  StatusOr<UpdateResponse> out(std::in_place);
  UpdateResponse& resp = *out;
  uint64_t offset = 0;
  std::shared_ptr<WalWriter> wal;
  if (fs_ == nullptr) {
    resp.stats = engine_.RemoveVertex(v);
    resp.token.generation = engine_.Generation();
  } else {
    std::lock_guard<std::mutex> lock(dur_mu_);
    if (dur_failed_) {
      metrics_.RecordRejected(dur_error_.code());
      return dur_error_;
    }
    WalRecord intent;
    intent.kind = WalRecord::Kind::kRemoveVertex;
    intent.seq = NextBatchSeqLocked();
    intent.vertex = v;
    if (auto off = AppendWalLocked(EncodeWalRecord(intent)); !off.ok()) {
      return off.status();
    }
    resp.stats = engine_.RemoveVertex(v);
    WalRecord commit;
    commit.kind = WalRecord::Kind::kCommit;
    commit.seq = intent.seq;
    commit.generation = engine_.Generation();
    auto off = AppendWalLocked(EncodeWalRecord(commit));
    resp.token.generation = commit.generation;
    if (!off.ok()) return off.status();
    offset = *off;
    wal = wal_;
    MaybeTriggerCheckpointLocked();
  }
  // Vertex deletion folds one decremental update per incident edge; the
  // report covers the whole deletion as one logical update.
  resp.reports.resize(1);
  WriteReport& report = resp.reports[0];
  if (resp.stats.applied) {
    report.outcome = WriteReport::Outcome::kApplied;
    report.reason = "applied";
    report.stats = resp.stats;
    report.generation = resp.token.generation;
    resp.applied = 1;
  } else {
    report.outcome = WriteReport::Outcome::kNoOp;
    report.reason = "vertex already isolated";
    resp.noops = 1;
  }
  metrics_.RecordWrite(1, resp.applied, resp.noops, 0);
  if (write.durable) {
    if (wal) {
      metrics_.RecordWalDurableWait();
      if (Status st = WaitDurableOffset(wal, offset); !st.ok()) return st;
    }
    resp.token.durable = true;
  }
  return out;
}

StatusOr<uint64_t> SpcService::AppendWalLocked(
    const std::vector<uint8_t>& payload) {
  auto off = wal_->AppendRecord(payload);
  if (!off.ok()) return FailDurabilityLocked(off.status());
  metrics_.RecordWalAppend(payload.size() + kWalRecordOverheadBytes);
  return off;
}

Status SpcService::FailDurabilityLocked(Status st) {
  if (!dur_failed_) {
    dur_failed_ = true;
    dur_error_ = std::move(st);
    metrics_.RecordWalFailure();
  }
  return dur_error_;  // the FIRST failure is the story, always
}

Status SpcService::WaitDurableOffset(const std::shared_ptr<WalWriter>& wal,
                                     uint64_t offset) {
  // Called WITHOUT dur_mu_: group commit blocks here and concurrent
  // writers must keep appending (that is the whole point of batching).
  // The shared_ptr keeps the segment alive across a concurrent rotation;
  // rotation Closes the old segment, and Close's final sync satisfies
  // this wait.
  Status st = wal->WaitDurable(offset);
  if (!st.ok()) {
    std::lock_guard<std::mutex> lock(dur_mu_);
    return FailDurabilityLocked(std::move(st));
  }
  return st;
}

Status SpcService::PublishSnapshot(SnapshotPublisher* publisher) {
  if (publisher == nullptr) {
    return Status::InvalidArgument("PublishSnapshot: null publisher");
  }
  // Same capture discipline as CheckpointLocked, minus the WAL rotation:
  // FreezeWrites blocks engine writers only, so reads keep serving while
  // the (generation, index) pair is copied; the arena write then happens
  // outside every lock.
  uint64_t gen = 0;
  std::unique_ptr<FlatSpcIndex> flat;
  {
    auto freeze = engine_.FreezeWrites();
    gen = engine_.Generation();
    flat = std::make_unique<FlatSpcIndex>(engine_.index());
  }
  const uint64_t wal_seq = Durable() ? WalSyncedTip().first : 0;
  Status st = publisher->Publish(*flat, gen, wal_seq);
  if (st.ok()) metrics_.RecordSnapshotPublish();
  return st;
}

Status SpcService::Checkpoint() {
  if (fs_ == nullptr) {
    return Status::NotSupported(
        "not a durable service (construct with SpcService::Open)");
  }
  std::lock_guard<std::mutex> lock(dur_mu_);
  if (dur_failed_) return dur_error_;
  return CheckpointLocked();
}

Status SpcService::CheckpointLocked() {
  // Capture a consistent (generation, graph, index) triple. FreezeWrites
  // only blocks engine writers — readers keep serving throughout; and
  // since dur_mu_ is held, no durable writer can be mid-append anyway.
  uint64_t gen = 0;
  Graph graph_copy;
  std::unique_ptr<FlatSpcIndex> flat;
  {
    auto freeze = engine_.FreezeWrites();
    gen = engine_.Generation();
    graph_copy = engine_.graph();
    flat = std::make_unique<FlatSpcIndex>(engine_.index());
  }
  // Rotate first: the new segment must exist (and carry base_generation
  // == gen) before the manifest can point at it. A crash between the
  // two leaves the old manifest in charge — the old segment run is still
  // contiguous, the new segment is just an empty stray.
  const uint64_t new_seq = wal_->seq() + 1;
  WalWriter::Options wal_options;
  wal_options.sync = dur_options_.sync;
  wal_options.flush_interval = dur_options_.flush_interval;
  wal_options.on_sync = [this] { metrics_.RecordWalSync(); };
  auto next = WalWriter::Create(
      fs_, dur_options_.dir + "/" + WalSegmentFileName(new_seq), new_seq,
      gen, wal_options);
  if (!next.ok()) return FailDurabilityLocked(next.status());
  std::shared_ptr<WalWriter> old = wal_;
  wal_ = std::move(*next);
  batch_seq_in_segment_ = 0;  // pairing keys are scoped per segment
  // Close syncs everything appended before tearing down, so records the
  // checkpoint is about to cover — and any in-flight durable waiters on
  // the old segment — are safe before the manifest moves past them.
  if (Status st = old->Close(); !st.ok()) return FailDurabilityLocked(st);
  if (Status st = checkpointer_->Publish(graph_copy, *flat, gen, new_seq);
      !st.ok()) {
    return FailDurabilityLocked(st);
  }
  metrics_.RecordCheckpoint();
  return Status::OK();
}

void SpcService::MaybeTriggerCheckpointLocked() {
  if (!checkpoint_thread_.joinable() || dur_failed_ ||
      checkpoint_requested_) {
    return;
  }
  const uint64_t bytes = dur_options_.checkpoint_wal_bytes;
  const uint64_t records = dur_options_.checkpoint_wal_records;
  const bool due =
      (bytes != 0 && wal_->AppendedBytes() >= bytes) ||
      (records != 0 && wal_->AppendedRecords() >= records);
  if (due) {
    checkpoint_requested_ = true;
    checkpoint_cv_.notify_one();
  }
}

void SpcService::CheckpointLoop() {
  std::unique_lock<std::mutex> lock(dur_mu_);
  while (!stop_checkpointer_) {
    checkpoint_cv_.wait(lock, [&] {
      return stop_checkpointer_ || checkpoint_requested_;
    });
    checkpoint_requested_ = false;
    if (stop_checkpointer_ || dur_failed_) continue;
    // Failure latches fail-stop (visible to every writer); nothing to
    // return to from a background trigger.
    (void)CheckpointLocked();
  }
}

Status SpcService::WaitForSnapshotUntil(
    WriteToken token, bool timed,
    std::chrono::steady_clock::time_point deadline) const {
  if (!engine_.options().snapshot.enabled) {
    metrics_.RecordRejected(Status::Code::kNotSupported);
    return Status::NotSupported(
        "snapshots are disabled on this service (SnapshotOptions::enabled)");
  }
  if (token.generation > engine_.Generation()) {
    metrics_.RecordRejected(Status::Code::kInvalidArgument);
    return Status::InvalidArgument(
        "token generation " + std::to_string(token.generation) +
        " exceeds the current generation — not issued by this service");
  }
  const auto pin = timed
                       ? engine_.AwaitSnapshotAtLeast(token.generation,
                                                      deadline)
                       : engine_.AwaitSnapshotAtLeast(token.generation);
  if (!pin || pin.generation < token.generation) {
    if (timed) {
      metrics_.RecordWaitDeadlineMiss();
      return Status::DeadlineExceeded(
          "published snapshot did not reach generation " +
          std::to_string(token.generation) + " before the deadline");
    }
    return Status::Unavailable(
        "snapshot manager stopped before reaching generation " +
        std::to_string(token.generation));
  }
  return Status::OK();
}

Status SpcService::WaitForSnapshot(WriteToken token) const {
  return WaitForSnapshotUntil(token, /*timed=*/false, {});
}

Status SpcService::WaitForSnapshot(WriteToken token,
                                   std::chrono::nanoseconds timeout) const {
  if (timeout < std::chrono::nanoseconds::zero()) {
    return WaitForSnapshotUntil(token, /*timed=*/false, {});
  }
  return WaitForSnapshotUntil(token, /*timed=*/true,
                              SaturatingDeadline(timeout));
}

MetricsSnapshot SpcService::Metrics() const {
  MetricsSnapshot snap = metrics_.Snapshot();
  // Pair-cache counters live in the cache itself (its shard locks
  // already serialize them); fold them into the snapshot here, the same
  // overlay pattern the replica gauges use.
  if (pair_cache_ != nullptr) {
    const PairCache::Stats stats = pair_cache_->StatsSnapshot();
    snap.pair_cache_hits = stats.hits;
    snap.pair_cache_misses = stats.misses;
    snap.pair_cache_insertions = stats.insertions;
    snap.pair_cache_evictions = stats.evictions;
  }
  return snap;
}

}  // namespace dspc
