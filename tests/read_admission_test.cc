// The consistency lattice (api/read_admission.h, DESIGN.md §9), twice:
//
//   ReadAdmissionLattice.*   the pure function, table-driven: every mode
//                            against every snapshot state (none / older
//                            than min_generation / within max_lag /
//                            beyond max_lag / current), live state (at
//                            the authority / below it / none) and
//                            token-minting flag.
//   ReadAdmission/*          one suite over the three facades — a
//                            primary SpcService, a ReplicaService whose
//                            tail is blocked behind the primary, and a
//                            MappedReaderService whose publisher moved on
//                            without a Refresh() — each driven into the
//                            same generations and asked the same rows.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dspc/api/mapped_reader_service.h"
#include "dspc/api/read_admission.h"
#include "dspc/api/replica_service.h"
#include "dspc/api/spc_service.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/hp_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/persist/env.h"
#include "dspc/persist/replication.h"
#include "dspc/persist/snapshot_publisher.h"

namespace dspc {
namespace {

using Code = Status::Code;
using V = ReadVerdict;

// --- the pure lattice --------------------------------------------------------

constexpr uint64_t kAuthority = 10;

// Each snapshot state carries the bounds that put it in that state
// against kAuthority.
struct SnapshotState {
  const char* name;
  uint64_t snapshot;  // 0 = none; kCurrent = at the live source
  uint64_t min_generation;
  uint64_t max_lag;
};
constexpr uint64_t kCurrent = ~uint64_t{0};
constexpr SnapshotState kSnapshotStates[] = {
    {"none", 0, 0, 2},
    {"older_than_min_generation", 7, 8, 5},  // lag 3 is within max_lag
    {"within_max_lag", 8, 0, 2},
    {"beyond_max_lag", 6, 0, 2},
    {"current", kCurrent, 0, 0},
};

struct LiveState {
  const char* name;
  uint64_t live;
};
constexpr LiveState kLiveStates[] = {
    {"at_authority", kAuthority},
    {"below_authority", kAuthority - 1},
    {"none", 0},
};

// expected[mode][snapshot state][live state]; the token never runs past
// the live source in these states, so mints_tokens does not matter here.
constexpr V kExpected[3][5][3] = {
    // kFresh: the snapshot if it is at the live source, else live; no
    // live source at all is kNotSupported.
    {{V::kServeLive, V::kServeLive, V::kNoLiveSource},
     {V::kServeLive, V::kServeLive, V::kNoLiveSource},
     {V::kServeLive, V::kServeLive, V::kNoLiveSource},
     {V::kServeLive, V::kServeLive, V::kNoLiveSource},
     {V::kServeSnapshot, V::kServeSnapshot, V::kNoLiveSource}},
    // kSnapshot: the snapshot if it exists and reaches min_generation.
    {{V::kNoSnapshot, V::kNoSnapshot, V::kNoSnapshot},
     {V::kSnapshotBehindToken, V::kSnapshotBehindToken,
      V::kSnapshotBehindToken},
     {V::kServeSnapshot, V::kServeSnapshot, V::kServeSnapshot},
     {V::kServeSnapshot, V::kServeSnapshot, V::kServeSnapshot},
     {V::kServeSnapshot, V::kServeSnapshot, V::kServeSnapshot}},
    // kBoundedStaleness: the snapshot within max_lag of the authority and
    // at least min_generation, else live within max_lag, else refused.
    {{V::kServeLive, V::kServeLive, V::kBeyondBound},
     {V::kServeLive, V::kServeLive, V::kBeyondBound},
     {V::kServeSnapshot, V::kServeSnapshot, V::kServeSnapshot},
     {V::kServeLive, V::kServeLive, V::kBeyondBound},
     // max_lag 0: a live source one generation behind is out of bounds,
     // and so is a snapshot at it.
     {V::kServeSnapshot, V::kBeyondBound, V::kServeSnapshot}},
};

constexpr Consistency kModes[] = {Consistency::kFresh, Consistency::kSnapshot,
                                  Consistency::kBoundedStaleness};

TEST(ReadAdmissionLattice, EveryModeAgainstEverySourceState) {
  for (size_t m = 0; m < 3; ++m) {
    for (size_t si = 0; si < 5; ++si) {
      for (size_t li = 0; li < 3; ++li) {
        for (const bool mints : {true, false}) {
          const SnapshotState& snap = kSnapshotStates[si];
          const LiveState& live = kLiveStates[li];
          const uint64_t snapshot =
              snap.snapshot != kCurrent ? snap.snapshot
              : live.live != 0          ? live.live
                                        : kAuthority;
          const ReadOptions options{.consistency = kModes[m],
                                    .max_lag = snap.max_lag,
                                    .min_generation = snap.min_generation};
          const ReadFrontier frontier{kAuthority, live.live, mints};
          EXPECT_EQ(AdmitRead(options, frontier, snapshot),
                    kExpected[m][si][li])
              << "mode " << m << ", snapshot " << snap.name << ", live "
              << live.name << ", mints_tokens " << mints;
        }
      }
    }
  }
}

TEST(ReadAdmissionLattice, TokenPastTheLiveSourceIsForgedOrPending) {
  for (const Consistency mode : kModes) {
    for (const LiveState& live : kLiveStates) {
      for (const bool mints : {true, false}) {
        const ReadOptions options{.consistency = mode,
                                  .max_lag = 100,
                                  .min_generation = kAuthority + 1};
        const ReadFrontier frontier{kAuthority, live.live, mints};
        const ReadVerdict verdict = AdmitRead(options, frontier, kAuthority);
        EXPECT_EQ(TokenAhead(options, frontier), live.live != 0);
        if (live.live != 0) {
          EXPECT_EQ(verdict, mints ? V::kForgedToken : V::kTokenNotApplied)
              << live.name;
          continue;
        }
        // No live state: the token is just a floor the snapshot misses.
        const ReadVerdict expected =
            mode == Consistency::kFresh      ? V::kNoLiveSource
            : mode == Consistency::kSnapshot ? V::kSnapshotBehindToken
                                             : V::kBeyondBound;
        EXPECT_EQ(verdict, expected);
      }
    }
  }
  // A token exactly at the live source is no token from the future.
  EXPECT_EQ(AdmitRead({.min_generation = kAuthority},
                      {kAuthority, kAuthority, true}, 0),
            V::kServeLive);
}

TEST(ReadAdmissionLattice, StalenessCountsFromTheAuthorityFlooredAtZero) {
  EXPECT_EQ(Staleness(10, 7), 3u);
  EXPECT_EQ(Staleness(10, 10), 0u);
  EXPECT_EQ(Staleness(10, 12), 0u);  // a snapshot published after admission
  // A snapshot past the authority is within any bound.
  EXPECT_EQ(AdmitRead({.consistency = Consistency::kBoundedStaleness},
                      {10, 10, true}, 12),
            V::kServeSnapshot);
}

TEST(ReadAdmissionLattice, RefusalsCarryTheirCodesAndAreCounted) {
  const struct {
    ReadVerdict verdict;
    Code code;
  } kRefusals[] = {
      {V::kForgedToken, Code::kInvalidArgument},
      {V::kTokenNotApplied, Code::kUnavailable},
      {V::kNoLiveSource, Code::kNotSupported},
      {V::kNoSnapshot, Code::kUnavailable},
      {V::kSnapshotBehindToken, Code::kUnavailable},
      {V::kBeyondBound, Code::kUnavailable},
  };
  ServiceMetrics metrics;
  for (const auto& refusal : kRefusals) {
    const Status st =
        RefuseRead(&metrics, refusal.verdict, {}, {10, 10, true}, 7);
    EXPECT_EQ(st.code(), refusal.code) << st.ToString();
    EXPECT_FALSE(st.message().empty());
  }
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.rejected_invalid_argument, 1u);
  EXPECT_EQ(snap.rejected_unavailable, 4u);
  EXPECT_EQ(snap.rejected_not_supported, 1u);
}

TEST(ReadAdmissionLattice, SharedRequestChecks) {
  EXPECT_TRUE(BadEndpoint(9, 1, 5).message().find("source") !=
              std::string::npos);
  EXPECT_TRUE(BadEndpoint(1, 9, 5).message().find("target") !=
              std::string::npos);
  const std::vector<VertexPair> pairs = {{0, 3}, {4, 1}, {2, 7}};
  const auto ok = CheckPairs({pairs.data(), 2}, 5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 4u);
  const auto bad = CheckPairs(pairs, 5);
  ASSERT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_TRUE(bad.status().message().find("pair 2") != std::string::npos);
  // nanoseconds::max() saturates instead of wrapping into the past.
  EXPECT_EQ(SaturatingDeadline(std::chrono::nanoseconds::max()),
            std::chrono::steady_clock::time_point::max());
  DynamicSpcOptions options;
  EXPECT_TRUE(RequireNoLazyRebuild(options, "durable").ok());
  options.rebuild_after_updates = 4;
  EXPECT_TRUE(RequireNoLazyRebuild(options, "replica").IsNotSupported());
}

// --- the three facades -------------------------------------------------------

// Every source is driven to snapshot S and authority A = S + 3. A
// primary's live index is at A; a replica has applied S + 1 (its
// snapshot stayed at its bootstrap S) and learned A from the store but
// cannot fetch the bytes; a mapped reader has no live index and saw
// PUBSTATE move to A without adopting it.
constexpr uint64_t kLag = 3;

// The snapshot never refreshes on its own: no query budget is ever spent.
DynamicSpcOptions FrozenSnapshotOptions() {
  DynamicSpcOptions options;
  options.snapshot.refresh = RefreshPolicy::kBackground;
  options.snapshot.rebuild_after_queries = size_t{1} << 40;
  return options;
}

std::string FreshDir(const std::string& name) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = ::testing::TempDir() + "/" + name;
  (void)fs->CreateDir(dir);
  auto names = fs->ListDir(dir);
  if (names.ok()) {
    for (const std::string& f : *names) (void)fs->RemoveFile(dir + "/" + f);
  }
  return dir;
}

Graph TestGraph() { return GeneratePath(12); }

// Edges not in TestGraph(): each insertion advances the generation by one.
UpdateResponse MustInsert(SpcService* service, Vertex k) {
  auto resp = service->InsertEdge(0, 4 + k, {.durable = true});
  EXPECT_TRUE(resp.ok() && resp->applied == 1);
  return resp.ok() ? *resp : UpdateResponse{};
}

enum class Source { kPrimary, kReplica, kMapped };

class FacadeUnderTest {
 public:
  virtual ~FacadeUnderTest() = default;
  virtual StatusOr<QueryResponse> Query(const ReadOptions& options) = 0;
  virtual StatusOr<BatchQueryResponse> QueryBatch(
      const ReadOptions& options) = 0;

  uint64_t snapshot = 0;
  uint64_t live = 0;  // 0 = no live index
  uint64_t authority = 0;
};

const std::vector<VertexPair> kPairs = {{0, 1}, {2, 9}};

class PrimaryFacade : public FacadeUnderTest {
 public:
  PrimaryFacade() : service_(TestGraph(), FrozenSnapshotOptions()) {
    snapshot = service_.Generation();
    for (Vertex k = 0; k < kLag; ++k) MustInsert(&service_, k);
    live = authority = service_.Generation();
  }
  StatusOr<QueryResponse> Query(const ReadOptions& options) override {
    return service_.Query(0, 1, options);
  }
  StatusOr<BatchQueryResponse> QueryBatch(
      const ReadOptions& options) override {
    return service_.QueryBatch(kPairs, options);
  }

 private:
  SpcService service_;
};

class ReplicaFacade : public FacadeUnderTest {
 public:
  explicit ReplicaFacade(const std::string& dir) : transport_(&store_) {
    DurabilityOptions durability;
    durability.dir = dir;
    durability.sync = WalSyncPolicy::kEveryWrite;
    durability.checkpoint_wal_bytes = 0;
    durability.checkpoint_wal_records = 0;
    auto primary = SpcService::Open(TestGraph(), durability);
    EXPECT_TRUE(primary.ok()) << primary.status().ToString();
    primary_ = std::move(*primary);
    auto shipper = primary_->NewShipper(&transport_);
    EXPECT_TRUE(shipper.ok());
    shipper_ = std::move(*shipper);
    EXPECT_TRUE(shipper_->ShipOnce().ok());

    ReplicaOptions options;
    options.transport = &transport_;
    options.engine = FrozenSnapshotOptions();
    options.start_tailer = false;
    options.bootstrap_timeout = std::chrono::milliseconds(0);
    auto replica = ReplicaService::Open(options);
    EXPECT_TRUE(replica.ok()) << replica.status().ToString();
    replica_ = std::move(*replica);
    snapshot = replica_->AppliedGeneration();

    // One write the replica applies...
    const uint64_t applied = MustInsert(primary_.get(), 0).token.generation;
    for (int i = 0; i < 100 && replica_->AppliedGeneration() < applied; ++i) {
      (void)shipper_->ShipOnce();
      (void)replica_->Step();
    }
    live = replica_->AppliedGeneration();
    EXPECT_EQ(live, snapshot + 1);

    // ...and the rest it learns of but cannot fetch: the next Step's
    // FetchState (op 0) succeeds, its FetchSegment (op 1) is cut.
    for (Vertex k = 1; k < kLag; ++k) MustInsert(primary_.get(), k);
    EXPECT_TRUE(shipper_->ShipOnce().ok());
    transport_.Arm(1, TransportFault::kDisconnect);
    EXPECT_FALSE(replica_->Step().ok());
    authority = replica_->PrimaryDurableGeneration();
    EXPECT_EQ(replica_->AppliedGeneration(), live);
  }
  StatusOr<QueryResponse> Query(const ReadOptions& options) override {
    return replica_->Query(0, 1, options);
  }
  SpcService* primary() { return primary_.get(); }
  ReplicaService* replica() { return replica_.get(); }
  StatusOr<BatchQueryResponse> QueryBatch(
      const ReadOptions& options) override {
    return replica_->QueryBatch(kPairs, options);
  }

 private:
  InProcessTransport store_;
  FaultInjectingTransport transport_;
  std::unique_ptr<SpcService> primary_;
  std::unique_ptr<WalShipper> shipper_;
  std::unique_ptr<ReplicaService> replica_;
};

class MappedFacade : public FacadeUnderTest {
 public:
  explicit MappedFacade(const std::string& dir) {
    auto pub = SnapshotPublisher::Open(dir);
    EXPECT_TRUE(pub.ok()) << pub.status().ToString();
    publisher_ = std::move(*pub);
    Graph graph = TestGraph();
    snapshot = 4;
    EXPECT_TRUE(
        publisher_->Publish(FlatSpcIndex(BuildSpcIndex(graph)), snapshot, 0)
            .ok());
    auto reader = MappedReaderService::Open(dir);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    reader_ = std::move(*reader);

    // Publish without Refresh(); a bounded read with room to spare
    // observes the new publisher generation without adopting it.
    EXPECT_TRUE(graph.AddEdge(0, 4));
    authority = snapshot + kLag;
    EXPECT_TRUE(
        publisher_->Publish(FlatSpcIndex(BuildSpcIndex(graph)), authority, 0)
            .ok());
    const auto seen = reader_->Query(
        0, 1, {.consistency = Consistency::kBoundedStaleness, .max_lag = 99});
    EXPECT_TRUE(seen.ok() && seen->generation == snapshot);
    EXPECT_EQ(reader_->PublisherGeneration(), authority);
  }
  StatusOr<QueryResponse> Query(const ReadOptions& options) override {
    return reader_->Query(0, 1, options);
  }
  StatusOr<BatchQueryResponse> QueryBatch(
      const ReadOptions& options) override {
    return reader_->QueryBatch(kPairs, options);
  }

 private:
  std::unique_ptr<SnapshotPublisher> publisher_;
  std::unique_ptr<MappedReaderService> reader_;
};

// One row's outcome on one source. On OK, the served generation is the
// source's snapshot, live or authority generation.
enum class At { kSnapshot, kLive, kAuthority };
struct Outcome {
  Code code;
  At at = At::kSnapshot;
  ServedFrom from = ServedFrom::kSnapshot;
};
constexpr Outcome Serves(At at, ServedFrom from) {
  return {Code::kOk, at, from};
}
constexpr Outcome kFromSnapshot = Serves(At::kSnapshot, ServedFrom::kSnapshot);
constexpr Outcome kFromLive = Serves(At::kLive, ServedFrom::kLiveIndex);
// The mapped reader's one inline refresh adopts the publisher's snapshot.
constexpr Outcome kRefreshed = Serves(At::kAuthority, ServedFrom::kSnapshot);
constexpr Outcome Refused(Code code) { return {code}; }

// min_generation relative to the source's generations.
enum class Floor { kZero, kSnapshotPlusOne, kAuthority, kAuthorityPlusOne };

struct Row {
  const char* name;
  Consistency mode;
  Floor floor;
  uint64_t max_lag;
  Outcome primary, replica, mapped;
};

const Row kRows[] = {
    {"fresh", Consistency::kFresh, Floor::kZero, 0, kFromLive, kFromLive,
     Refused(Code::kNotSupported)},
    {"fresh_token_from_future", Consistency::kFresh, Floor::kAuthorityPlusOne,
     0, Refused(Code::kInvalidArgument), Refused(Code::kUnavailable),
     Refused(Code::kNotSupported)},
    {"snapshot", Consistency::kSnapshot, Floor::kZero, 0, kFromSnapshot,
     kFromSnapshot, kFromSnapshot},
    {"snapshot_behind_token", Consistency::kSnapshot, Floor::kSnapshotPlusOne,
     0, Refused(Code::kUnavailable), Refused(Code::kUnavailable),
     Refused(Code::kUnavailable)},
    {"snapshot_token_at_authority", Consistency::kSnapshot, Floor::kAuthority,
     0, Refused(Code::kUnavailable), Refused(Code::kUnavailable),
     Refused(Code::kUnavailable)},
    {"bounded_snapshot_within_lag", Consistency::kBoundedStaleness,
     Floor::kZero, kLag, kFromSnapshot, kFromSnapshot, kFromSnapshot},
    {"bounded_live_within_lag", Consistency::kBoundedStaleness, Floor::kZero,
     kLag - 1, kFromLive, kFromLive, kRefreshed},
    {"bounded_nothing_within_lag", Consistency::kBoundedStaleness,
     Floor::kZero, kLag - 2, kFromLive, Refused(Code::kUnavailable),
     kRefreshed},
    {"bounded_snapshot_behind_token", Consistency::kBoundedStaleness,
     Floor::kSnapshotPlusOne, kLag, kFromLive, kFromLive, kRefreshed},
    {"bounded_token_from_future", Consistency::kBoundedStaleness,
     Floor::kAuthorityPlusOne, 99, Refused(Code::kInvalidArgument),
     Refused(Code::kUnavailable), Refused(Code::kUnavailable)},
};

class ReadAdmissionTest : public ::testing::TestWithParam<Source> {
 protected:
  std::unique_ptr<FacadeUnderTest> Build(const std::string& row) const {
    // Per source and row: ctest runs each source's case as its own
    // process, concurrently with the others.
    const std::string dir =
        FreshDir("read_admission_" + SourceName(GetParam()) + "_" + row);
    switch (GetParam()) {
      case Source::kPrimary:
        return std::make_unique<PrimaryFacade>();
      case Source::kReplica:
        return std::make_unique<ReplicaFacade>(dir);
      case Source::kMapped:
        return std::make_unique<MappedFacade>(dir);
    }
    return nullptr;
  }

 public:
  static std::string SourceName(Source source) {
    switch (source) {
      case Source::kPrimary:
        return "Primary";
      case Source::kReplica:
        return "Replica";
      case Source::kMapped:
        return "Mapped";
    }
    return "Unknown";
  }
};

TEST_P(ReadAdmissionTest, EveryRowOnEverySource) {
  for (const Row& row : kRows) {
    SCOPED_TRACE(row.name);
    // Rows may move a source (an inline refresh adopts), so each row
    // starts from a freshly built one.
    const std::unique_ptr<FacadeUnderTest> source = Build(row.name);
    if (HasFailure()) return;
    ASSERT_EQ(source->authority, source->snapshot + kLag);
    const uint64_t floor =
        row.floor == Floor::kZero              ? 0
        : row.floor == Floor::kSnapshotPlusOne ? source->snapshot + 1
        : row.floor == Floor::kAuthority       ? source->authority
                                               : source->authority + 1;
    const ReadOptions options{.consistency = row.mode,
                              .max_lag = row.max_lag,
                              .min_generation = floor};
    const Outcome& want = GetParam() == Source::kPrimary ? row.primary
                          : GetParam() == Source::kReplica ? row.replica
                                                           : row.mapped;
    const uint64_t served = want.at == At::kSnapshot ? source->snapshot
                            : want.at == At::kLive   ? source->live
                                                     : source->authority;

    const auto single = source->Query(options);
    ASSERT_EQ(single.status().code(), want.code)
        << single.status().ToString();
    if (want.code == Code::kOk) {
      EXPECT_EQ(single->generation, served);
      EXPECT_EQ(single->staleness, source->authority - served);
      EXPECT_EQ(single->served_from, want.from);
    }
    const auto batch = source->QueryBatch(options);
    ASSERT_EQ(batch.status().code(), want.code) << batch.status().ToString();
    if (want.code == Code::kOk) {
      EXPECT_EQ(batch->generation, served);
      EXPECT_EQ(batch->staleness, source->authority - served);
      EXPECT_EQ(batch->served_from, want.from);
      EXPECT_EQ(batch->results.size(), kPairs.size());
    }
  }
}

// A vertex the primary created but the replica has not applied is out of
// range on the replica; a refusal the lattice gives from the replica's
// live index alone is the retryable answer, not kInvalidArgument.
TEST(ReadAdmissionVertex, UnappliedVertexOnAReplicaIsPendingNotInvalid) {
  ReplicaFacade source(FreshDir("read_admission_unapplied_vertex"));
  const AddVertexResponse added =
      source.primary()->AddVertex({.durable = true});
  ASSERT_NE(added.vertex, kInvalidVertex);
  ReplicaService* replica = source.replica();
  const auto code = [&](const ReadOptions& options) {
    const Code single =
        replica->Query(0, added.vertex, options).status().code();
    const std::vector<VertexPair> pairs = {{0, 1}, {added.vertex, 2}};
    EXPECT_EQ(replica->QueryBatch(pairs, options).status().code(), single);
    return single;
  };
  EXPECT_EQ(code({.min_generation = added.token.generation}),
            Code::kUnavailable);
  EXPECT_EQ(code({.consistency = Consistency::kBoundedStaleness,
                  .max_lag = kLag - 2}),
            Code::kUnavailable);
  EXPECT_EQ(code({}), Code::kInvalidArgument);
  EXPECT_EQ(code({.consistency = Consistency::kSnapshot}),
            Code::kInvalidArgument);
  EXPECT_EQ(code({.consistency = Consistency::kBoundedStaleness,
                  .max_lag = kLag - 1}),
            Code::kInvalidArgument);

  // On the primary, which minted the token, an out-of-range vertex is
  // kInvalidArgument whatever else the read asks.
  SpcService* primary = source.primary();
  const auto past = static_cast<Vertex>(primary->NumVertices());
  EXPECT_TRUE(primary->Query(0, past).status().IsInvalidArgument());
  EXPECT_TRUE(primary->Query(0, past, {.min_generation = 1000})
                  .status()
                  .IsInvalidArgument());
}

INSTANTIATE_TEST_SUITE_P(
    ReadAdmission, ReadAdmissionTest,
    ::testing::Values(Source::kPrimary, Source::kReplica, Source::kMapped),
    [](const ::testing::TestParamInfo<Source>& info) {
      return ReadAdmissionTest::SourceName(info.param);
    });

}  // namespace
}  // namespace dspc
