#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace perfbench {
namespace {

uint64_t Key(Vertex a, Vertex b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  Rng mix(seed * 0x100000001b3ull + stream * 0x9e3779b97f4a7c15ull + 1);
  return mix.Next();
}

std::vector<EdgeUV> RmatEdges(unsigned scale, size_t draws, Rng& rng) {
  std::unordered_set<uint64_t> seen;
  seen.reserve(draws * 2);
  std::vector<EdgeUV> edges;
  edges.reserve(draws);
  for (size_t i = 0; i < draws; ++i) {
    Vertex u = 0, v = 0;
    for (unsigned bit = 0; bit < scale; ++bit) {
      const double r = rng.Unit();
      u <<= 1;
      v <<= 1;
      if (r < 0.57) {
      } else if (r < 0.76) {
        v |= 1;
      } else if (r < 0.95) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u == v || !seen.insert(Key(u, v)).second) continue;
    edges.push_back({std::min(u, v), std::max(u, v)});
  }
  return edges;
}

std::vector<EdgeUV> RoadEdges(size_t rows, size_t cols, double extra_share,
                              unsigned span, Rng& rng) {
  std::unordered_set<uint64_t> seen;
  std::vector<EdgeUV> edges;
  auto add = [&](Vertex a, Vertex b) {
    if (a == b || !seen.insert(Key(a, b)).second) return false;
    edges.push_back({std::min(a, b), std::max(a, b)});
    return true;
  };
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const auto v = static_cast<Vertex>(r * cols + c);
      if (c + 1 < cols) add(v, v + 1);
      if (r + 1 < rows) add(v, static_cast<Vertex>(v + cols));
    }
  }
  const auto extra = static_cast<size_t>(edges.size() * extra_share);
  const long width = 2 * static_cast<long>(span) + 1;
  for (size_t added = 0; added < extra;) {
    const long r = static_cast<long>(rng.Below(rows));
    const long c = static_cast<long>(rng.Below(cols));
    const long r2 = r + static_cast<long>(rng.Below(width)) - span;
    const long c2 = c + static_cast<long>(rng.Below(width)) - span;
    if (r2 < 0 || c2 < 0 || r2 >= static_cast<long>(rows) ||
        c2 >= static_cast<long>(cols)) {
      continue;
    }
    if (add(static_cast<Vertex>(r * cols + c),
            static_cast<Vertex>(r2 * cols + c2))) {
      ++added;
    }
  }
  return edges;
}

std::vector<Vertex> DegreeRanking(size_t n, const std::vector<EdgeUV>& edges) {
  std::vector<size_t> degree(n, 0);
  for (const EdgeUV& e : edges) {
    ++degree[e.u];
    ++degree[e.v];
  }
  std::vector<Vertex> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<Vertex>(i);
  std::stable_sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    return degree[a] > degree[b];
  });
  return order;
}

ZipfRanks::ZipfRanks(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfRanks::Sample(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

}  // namespace perfbench
