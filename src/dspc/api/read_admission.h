// Read admission shared by the serving facades: the consistency lattice
// (DESIGN.md §9) written once, plus the request checks every facade
// repeats.
//
// A facade describes what it could serve from as a ReadFrontier and the
// generation of the snapshot it holds; AdmitRead picks the source or the
// refusal. SpcService (a primary, and a replica's inner service) and
// MappedReaderService route every read through it. The lattice is pure
// and header-inline because it sits on every read's hot path; refusal
// Statuses are built out of line, so served reads never build strings.

#ifndef DSPC_API_READ_ADMISSION_H_
#define DSPC_API_READ_ADMISSION_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>

#include "dspc/api/service_metrics.h"
#include "dspc/api/spc_service.h"
#include "dspc/common/status.h"
#include "dspc/common/types.h"

namespace dspc {

/// The generations one read can be served from.
struct ReadFrontier {
  /// What staleness counts from: the primary's own generation on a
  /// primary, its durably-acked generation on a replica, the publisher's
  /// generation on a mapped reader.
  uint64_t authority = 0;

  /// Generation of the live (mutable) index; 0 = no live source.
  uint64_t live = 0;

  /// True when this source issues the tokens a min_generation carries: a
  /// token past `live` is then forged, not merely not yet applied.
  bool mints_tokens = false;
};

/// AdmitRead's decision: a source to serve from, or why the read is
/// refused (the Status code each refusal becomes is noted).
enum class ReadVerdict : unsigned char {
  kServeSnapshot,
  kServeLive,
  kForgedToken,          ///< kInvalidArgument: token past a minting source
  kTokenNotApplied,      ///< kUnavailable: token past a replaying source
  kNoLiveSource,         ///< kNotSupported: kFresh without a live index
  kNoSnapshot,           ///< kUnavailable: kSnapshot, no usable snapshot
  kSnapshotBehindToken,  ///< kUnavailable: kSnapshot, snapshot < token
  kBeyondBound,          ///< kUnavailable: kBoundedStaleness, no source
                         ///< within max_lag and >= min_generation
};

/// Generations `served` trails `authority`, floored at 0.
constexpr uint64_t Staleness(uint64_t authority, uint64_t served) {
  return authority > served ? authority - served : 0;
}

/// The token rule alone: min_generation is past the live source. A
/// facade checks it before leasing a snapshot, because a lease may charge
/// (or, under kSync, perform) snapshot maintenance.
[[gnu::always_inline]] inline bool TokenAhead(const ReadOptions& options,
                                              const ReadFrontier& frontier) {
  return frontier.live != 0 && options.min_generation > frontier.live;
}

/// The consistency lattice. `snapshot` is the generation of the snapshot
/// the facade can serve this read from, 0 when none is usable.
[[gnu::always_inline]] inline ReadVerdict AdmitRead(
    const ReadOptions& options, const ReadFrontier& frontier,
    uint64_t snapshot) {
  if (TokenAhead(options, frontier)) [[unlikely]] {
    return frontier.mints_tokens ? ReadVerdict::kForgedToken
                                 : ReadVerdict::kTokenNotApplied;
  }
  switch (options.consistency) {
    case Consistency::kSnapshot:
      if (snapshot == 0) return ReadVerdict::kNoSnapshot;
      return snapshot >= options.min_generation
                 ? ReadVerdict::kServeSnapshot
                 : ReadVerdict::kSnapshotBehindToken;
    case Consistency::kBoundedStaleness:
      if (snapshot != 0 && snapshot >= options.min_generation &&
          Staleness(frontier.authority, snapshot) <= options.max_lag) {
        return ReadVerdict::kServeSnapshot;
      }
      if (frontier.live != 0 &&
          Staleness(frontier.authority, frontier.live) <= options.max_lag) {
        return ReadVerdict::kServeLive;
      }
      return ReadVerdict::kBeyondBound;
    case Consistency::kFresh:
      break;
  }
  if (frontier.live == 0) return ReadVerdict::kNoLiveSource;
  return snapshot >= frontier.live ? ReadVerdict::kServeSnapshot
                                   : ReadVerdict::kServeLive;
}

/// The Status of a refusing verdict (not kServeSnapshot / kServeLive),
/// counted in `metrics`.
[[gnu::cold, gnu::noinline]] inline Status RefuseRead(
    ServiceMetrics* metrics, ReadVerdict verdict, const ReadOptions& options,
    const ReadFrontier& frontier, uint64_t snapshot) {
  const std::string token = std::to_string(options.min_generation);
  Status st;
  switch (verdict) {
    case ReadVerdict::kForgedToken:
      st = Status::InvalidArgument(
          "min_generation " + token + " exceeds the current generation " +
          std::to_string(frontier.live) +
          " — not a token issued by this service");
      break;
    case ReadVerdict::kTokenNotApplied:
      st = Status::Unavailable(
          "applied through generation " + std::to_string(frontier.live) +
          ", which trails min_generation " + token +
          "; retry, or read the primary");
      break;
    case ReadVerdict::kNoLiveSource:
      st = Status::NotSupported(
          "kFresh needs a live index, and this reader serves snapshots "
          "only; use kSnapshot or kBoundedStaleness");
      break;
    case ReadVerdict::kNoSnapshot:
      st = Status::Unavailable(
          "kSnapshot read with no usable snapshot (none published yet, or "
          "it predates a requested vertex); warm one with "
          "WaitForSnapshot({Generation()}), or relax to kFresh");
      break;
    case ReadVerdict::kSnapshotBehindToken:
      st = Status::Unavailable(
          "snapshot at generation " + std::to_string(snapshot) +
          " trails min_generation " + token +
          " (kSnapshot never waits); refresh and retry, or relax the mode");
      break;
    default:  // kBeyondBound; callers pass refusing verdicts only
      st = Status::Unavailable(
          "no source within max_lag " + std::to_string(options.max_lag) +
          " of generation " + std::to_string(frontier.authority) +
          " and at least min_generation " + token + " (snapshot " +
          std::to_string(snapshot) + ", live " +
          std::to_string(frontier.live) + ")");
      break;
  }
  metrics->RecordRejected(st.code());
  return st;
}

/// kInvalidArgument for vertex id `v` outside [0, n).
[[gnu::cold, gnu::noinline]] inline Status BadVertex(const char* what,
                                                     Vertex v, size_t n) {
  return Status::InvalidArgument(std::string(what) + " vertex id " +
                                 std::to_string(v) + " outside [0, " +
                                 std::to_string(n) + ")");
}

/// BadVertex for whichever of a query's endpoints is outside [0, n).
[[gnu::cold, gnu::noinline]] inline Status BadEndpoint(Vertex s, Vertex t,
                                                       size_t n) {
  return static_cast<size_t>(s) >= n ? BadVertex("source", s, n)
                                      : BadVertex("target", t, n);
}

/// A batch's range check: its largest endpoint, or kInvalidArgument
/// naming the first pair with an endpoint outside [0, n).
inline StatusOr<Vertex> CheckPairs(std::span<const VertexPair> pairs,
                                   size_t n) {
  Vertex max_vertex = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, t] = pairs[i];
    if (static_cast<size_t>(s) >= n || static_cast<size_t>(t) >= n)
        [[unlikely]] {
      return Status::InvalidArgument("pair " + std::to_string(i) + ": " +
                                     BadEndpoint(s, t, n).message());
    }
    max_vertex = std::max({max_vertex, s, t});
  }
  return max_vertex;
}

/// Absolute deadline of a non-negative timeout, saturating instead of
/// overflowing, so nanoseconds::max() means "practically forever", not an
/// instant wrapped into the past.
inline std::chrono::steady_clock::time_point SaturatingDeadline(
    std::chrono::nanoseconds timeout) {
  const auto now = std::chrono::steady_clock::now();
  if (timeout >= std::chrono::steady_clock::time_point::max() - now) {
    return std::chrono::steady_clock::time_point::max();
  }
  return now + timeout;
}

/// Open-time refusal shared by durable primaries and replicas: a lazy
/// rebuild policy advances the generation outside the log they replay,
/// which would break replay determinism.
inline Status RequireNoLazyRebuild(const DynamicSpcOptions& options,
                                   const char* serving) {
  if (options.rebuild_after_updates == 0 &&
      options.rebuild_growth_factor == 0.0) {
    return Status::OK();
  }
  return Status::NotSupported(
      std::string(serving) +
      " serving requires the lazy rebuild policy disabled: a policy "
      "rebuild advances the generation outside the log it replays, which "
      "would break replay determinism");
}

}  // namespace dspc

#endif  // DSPC_API_READ_ADMISSION_H_
