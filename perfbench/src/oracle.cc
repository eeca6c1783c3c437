#include "oracle.h"

#include <algorithm>

namespace perfbench {

OracleGraph::OracleGraph(size_t n, const std::vector<EdgeUV>& edges)
    : adj_(n), edge_slot_(n) {
  for (const EdgeUV& e : edges) Add(e.u, e.v);
}

bool OracleGraph::HasEdge(Vertex u, Vertex v) const {
  const auto& a = adj_[u].size() < adj_[v].size() ? adj_[u] : adj_[v];
  const Vertex other = adj_[u].size() < adj_[v].size() ? v : u;
  return std::find(a.begin(), a.end(), other) != a.end();
}

bool OracleGraph::Add(Vertex u, Vertex v) {
  if (u == v || HasEdge(u, v)) return false;
  const auto slot = static_cast<uint32_t>(edges_.size());
  edges_.push_back({std::min(u, v), std::max(u, v)});
  adj_[u].push_back(v);
  edge_slot_[u].push_back(slot);
  adj_[v].push_back(u);
  edge_slot_[v].push_back(slot);
  return true;
}

bool OracleGraph::Remove(Vertex u, Vertex v) {
  const auto it = std::find(adj_[u].begin(), adj_[u].end(), v);
  if (it == adj_[u].end()) return false;
  const uint32_t slot = edge_slot_[u][it - adj_[u].begin()];
  // Unlink from both adjacency lists (swap with last).
  auto unlink = [&](Vertex a, Vertex b) {
    auto& list = adj_[a];
    const size_t i = std::find(list.begin(), list.end(), b) - list.begin();
    list[i] = list.back();
    list.pop_back();
    edge_slot_[a][i] = edge_slot_[a].back();
    edge_slot_[a].pop_back();
  };
  unlink(u, v);
  unlink(v, u);
  // Move the last edge into the freed slot and repoint its slot entries.
  const EdgeUV moved = edges_.back();
  edges_.pop_back();
  if (slot < edges_.size()) {
    edges_[slot] = moved;
    const auto last = static_cast<uint32_t>(edges_.size());
    for (const auto& [a, b] : {std::pair{moved.u, moved.v},
                               std::pair{moved.v, moved.u}}) {
      const size_t i =
          std::find(adj_[a].begin(), adj_[a].end(), b) - adj_[a].begin();
      if (edge_slot_[a][i] == last) edge_slot_[a][i] = slot;
    }
  }
  return true;
}

Counter::Counter(size_t n)
    : dist_(n, kUnreachable), count_(n, 0), wide_(n, 0) {
  queue_.reserve(n);
}

namespace {

constexpr u128 kTwo64 = static_cast<u128>(1) << 64;

}  // namespace

// Level-synchronous BFS accumulating counts. A count below 2^64 at every
// parent sums to below deg * 2^64 < 2^128, so `count_` is exact until the
// first value reaches 2^64; from then on `wide_` carries the fact and
// wrapping u128 arithmetic keeps the low 64 bits exact.
void Counter::FromSource(const OracleGraph& g, Vertex s,
                         std::vector<Answer>* out) {
  queue_.clear();
  dist_[s] = 0;
  count_[s] = 1;
  wide_[s] = 0;
  queue_.push_back(s);
  for (size_t head = 0; head < queue_.size(); ++head) {
    const Vertex v = queue_[head];
    for (const Vertex w : g.Neighbors(v)) {
      if (dist_[w] == kUnreachable) {
        dist_[w] = dist_[v] + 1;
        count_[w] = 0;
        wide_[w] = 0;
        queue_.push_back(w);
      }
      if (dist_[w] == dist_[v] + 1) {
        count_[w] += count_[v];
        wide_[w] |= wide_[v] | (count_[w] >= kTwo64);
      }
    }
  }
  out->assign(g.NumVertices(), Answer{});
  for (const Vertex v : queue_) {
    (*out)[v] = Answer{dist_[v], count_[v], wide_[v] != 0};
    dist_[v] = kUnreachable;
  }
}

Answer Counter::Pair(const OracleGraph& g, Vertex s, Vertex t) {
  queue_.clear();
  dist_[s] = 0;
  count_[s] = 1;
  wide_[s] = 0;
  queue_.push_back(s);
  for (size_t head = 0; head < queue_.size(); ++head) {
    const Vertex v = queue_[head];
    // Every vertex of t's level has been expanded into t once the queue
    // reaches a vertex at t's distance.
    if (dist_[t] != kUnreachable && dist_[v] >= dist_[t]) break;
    for (const Vertex w : g.Neighbors(v)) {
      if (dist_[w] == kUnreachable) {
        dist_[w] = dist_[v] + 1;
        count_[w] = 0;
        wide_[w] = 0;
        queue_.push_back(w);
      }
      if (dist_[w] == dist_[v] + 1) {
        count_[w] += count_[v];
        wide_[w] |= wide_[v] | (count_[w] >= kTwo64);
      }
    }
  }
  Answer a;
  if (dist_[t] != kUnreachable) a = Answer{dist_[t], count_[t], wide_[t] != 0};
  for (const Vertex v : queue_) dist_[v] = kUnreachable;
  return a;
}

namespace {

u128 Binomial(unsigned n, unsigned k) {
  u128 c = 1;
  for (unsigned i = 1; i <= k; ++i) c = c * (n - k + i) / i;
  return c;
}

std::string Expect(const char* what, const Answer& got, uint32_t dist,
                   u128 count) {
  const bool wide = count >= kTwo64;
  if (got.dist == dist && got.wide == wide &&
      (wide ? got.Low64() == static_cast<uint64_t>(count)
            : got.count == count)) {
    return "";
  }
  return std::string(what) + ": dist " + std::to_string(got.dist) +
         " (want " + std::to_string(dist) + "), low64 " +
         std::to_string(got.Low64()) + " (want " +
         std::to_string(static_cast<uint64_t>(count)) + ")";
}

}  // namespace

std::string SelfTest() {
  std::vector<Answer> row;
  Rng unused(1);
  {  // 40 x 40 grid: corner-to-(r, c) count is C(r + c, r), up to ~2.7e22.
    const unsigned side = 40;
    std::vector<EdgeUV> e = RoadEdges(side, side, 0.0, 1, unused);
    OracleGraph g(side * side, e);
    Counter counter(g.NumVertices());
    counter.FromSource(g, 0, &row);
    size_t wide = 0;
    for (unsigned r = 0; r < side; ++r) {
      for (unsigned c = 0; c < side; ++c) {
        const std::string err = Expect("grid", row[r * side + c], r + c,
                                       Binomial(r + c, r));
        if (!err.empty()) return err;
        wide += row[r * side + c].wide;
      }
    }
    if (wide == 0) return "grid: no count reached 2^64";
    const Answer p = counter.Pair(g, 0, side * side - 1);
    const std::string err = Expect("grid pair", p, 78, Binomial(78, 39));
    if (!err.empty()) return err;
  }
  {  // K_{5,7}: across = (1, 1); same side = (2, size of the other side).
    const unsigned a = 5, b = 7;
    std::vector<EdgeUV> e;
    for (Vertex u = 0; u < a; ++u)
      for (Vertex v = a; v < a + b; ++v) e.push_back({u, v});
    OracleGraph g(a + b, e);
    Counter counter(g.NumVertices());
    for (const std::string& err :
         {Expect("K_ab across", counter.Pair(g, 0, a), 1, 1),
          Expect("K_ab side a", counter.Pair(g, 0, 1), 2, b),
          Expect("K_ab side b", counter.Pair(g, a, a + 1), 2, a)}) {
      if (!err.empty()) return err;
    }
  }
  {  // Even cycle C_12: the antipode has two shortest paths, others one.
    const unsigned n = 12;
    std::vector<EdgeUV> e;
    for (Vertex v = 0; v < n; ++v) e.push_back({v, (v + 1) % n});
    OracleGraph g(n, e);
    Counter counter(n);
    counter.FromSource(g, 0, &row);
    for (Vertex v = 0; v < n; ++v) {
      const uint32_t d = std::min(v, n - v);
      const std::string err = Expect("cycle", row[v], d, v == n / 2 ? 2 : 1);
      if (!err.empty()) return err;
    }
  }
  {  // Path P_9: distance |i - j|, one path; a disconnected vertex is
     // unreachable with count 0.
    const unsigned n = 9;
    std::vector<EdgeUV> e;
    for (Vertex v = 0; v + 1 < n; ++v) e.push_back({v, v + 1});
    OracleGraph g(n + 1, e);
    Counter counter(n + 1);
    for (Vertex v = 0; v < n; ++v) {
      const std::string err = Expect("path", counter.Pair(g, 2, v),
                                     v > 2 ? v - 2 : 2 - v, 1);
      if (!err.empty()) return err;
    }
    const Answer lone = counter.Pair(g, 0, n);
    if (lone.dist != kUnreachable || lone.count != 0) {
      return "path: isolated vertex reachable";
    }
  }
  {  // The edge bookkeeping survives removals of moved slots.
    OracleGraph g(4, {{0, 1}, {1, 2}, {2, 3}});
    if (!g.Remove(0, 1) || g.HasEdge(0, 1) || !g.HasEdge(2, 3) ||
        !g.Remove(2, 3) || g.NumEdges() != 1 || !g.HasEdge(1, 2)) {
      return "oracle graph edge bookkeeping";
    }
  }
  return "";
}

}  // namespace perfbench
