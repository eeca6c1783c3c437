// The benchmark's answer oracle: its own copy of the graph and its own BFS
// shortest-path counter with 128-bit counts. It shares no code with the
// library (nor with the library's baseline/ counters), so an answer the
// library and the oracle agree on was computed twice, independently.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

using u128 = unsigned __int128;

inline constexpr uint32_t kUnreachable = 0xffffffffu;

/// One exact answer. `count` is exact while `wide` is false; once the true
/// count reaches 2^64 `wide` is set and only the low 64 bits of `count`
/// stay meaningful (they are the true count modulo 2^64, which is what
/// the library documents for its uint64_t counts).
struct Answer {
  uint32_t dist = kUnreachable;
  u128 count = 0;
  bool wide = false;

  uint64_t Low64() const { return static_cast<uint64_t>(count); }
};

/// Simple undirected graph with O(1) random-edge sampling, kept in step
/// with every write the benchmark sends to the service.
class OracleGraph {
 public:
  OracleGraph(size_t n, const std::vector<EdgeUV>& edges);

  size_t NumVertices() const { return adj_.size(); }
  size_t NumEdges() const { return edges_.size(); }
  bool HasEdge(Vertex u, Vertex v) const;
  /// Both return false (and change nothing) when the edge is already
  /// present / absent.
  bool Add(Vertex u, Vertex v);
  bool Remove(Vertex u, Vertex v);
  EdgeUV RandomEdge(Rng& rng) const { return edges_[rng.Below(edges_.size())]; }
  const std::vector<Vertex>& Neighbors(Vertex v) const { return adj_[v]; }

 private:
  std::vector<std::vector<Vertex>> adj_;
  std::vector<EdgeUV> edges_;
  std::vector<std::vector<uint32_t>> edge_slot_;  ///< parallel to adj_
};

/// BFS path counter with reusable buffers.
class Counter {
 public:
  explicit Counter(size_t n);

  /// Full single-source answers: (*out)[v] answers (s, v).
  void FromSource(const OracleGraph& g, Vertex s, std::vector<Answer>* out);

  /// One pair; stops once t's level is complete.
  Answer Pair(const OracleGraph& g, Vertex s, Vertex t);

 private:
  std::vector<uint32_t> dist_;
  std::vector<u128> count_;
  std::vector<uint8_t> wide_;
  std::vector<Vertex> queue_;
};

/// True when the library's (dist, count) matches the oracle: exact
/// distance, count equal modulo 2^64.
inline bool Matches(const Answer& a, uint32_t dist, uint64_t count) {
  if (a.dist == kUnreachable) return dist == kUnreachable && count == 0;
  return a.dist == dist && a.Low64() == count;
}

/// Checks the oracle against closed forms: grid corner counts C(dx+dy, dx)
/// (past 2^64 on a 40x40 grid), K_{a,b}, even cycles and paths. Returns an
/// empty string on success, else the first mismatch.
std::string SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
