// Seeded input generation for the benchmark: its own random source, the
// R-MAT social graph, the road-like grid and the Zipf sampler over degree
// rank. None of it calls the library, so a change to the library's own
// generators never changes what the benchmark feeds it.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

using Vertex = uint32_t;

struct EdgeUV {
  Vertex u;
  Vertex v;
};

/// splitmix64 stream: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives an independent seed for one input stream of one run.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// R-MAT with the Graph500 quadrant probabilities (0.57, 0.19, 0.19, 0.05):
/// 2^scale vertices, `draws` edge draws; self-loops and duplicates dropped,
/// each edge returned once with u < v.
std::vector<EdgeUV> RmatEdges(unsigned scale, size_t draws, Rng& rng);

/// rows x cols 4-neighbour grid plus `extra_share` x (grid edges) extra
/// edges, each joining two distinct vertices at most `span` rows and `span`
/// columns apart: the local shortcuts of a road network. Each edge once,
/// u < v.
std::vector<EdgeUV> RoadEdges(size_t rows, size_t cols, double extra_share,
                              unsigned span, Rng& rng);

/// Vertices sorted by descending degree, ties by id: rank 0 is the most
/// connected vertex.
std::vector<Vertex> DegreeRanking(size_t n, const std::vector<EdgeUV>& edges);

/// Zipf(s) over ranks [0, n): P(rank k) proportional to 1 / (k + 1)^s.
class ZipfRanks {
 public:
  ZipfRanks(size_t n, double s);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
