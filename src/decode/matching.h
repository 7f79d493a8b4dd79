#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ftqc::decode {

struct Match {
  uint32_t a;
  uint32_t b;
};

// Pairs up an even set of defects, minimizing (exactly or approximately) the
// summed pair weight. Matching is the workhorse of surface-code decoding
// (Gottesman arXiv:2210.15844 §5, Paler & Devitt arXiv:1508.03695): each
// matched pair is corrected along a geodesic between its defects, and the
// quality of the pairing sets the code's threshold.
//
// Strategies see nothing but a dense row-major num_defects x num_defects
// matrix of integer pair weights, and read only its strict upper triangle
// (weights[i * n + j] for i < j); the diagonal and lower triangle are never
// read, so callers fill just the upper triangle. One strategy serves the 2D
// torus, the 3D space-time graph and any future defect graph.
class MatchingStrategy {
 public:
  virtual ~MatchingStrategy() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  // `num_defects` must be even and `weights` hold num_defects^2 entries;
  // returns num_defects/2 disjoint pairs.
  [[nodiscard]] virtual std::vector<Match> match(
      size_t num_defects, std::span<const size_t> weights) const = 0;
};

// Repeatedly matches the globally closest remaining pair. O(n^3), no
// optimality guarantee — on the toric code it tops out near an 8% threshold
// where true MWPM (BlossomMatching, decode/blossom.h) reaches ~10.3%.
class GreedyMatching final : public MatchingStrategy {
 public:
  [[nodiscard]] const char* name() const override { return "greedy"; }
  [[nodiscard]] std::vector<Match> match(
      size_t num_defects, std::span<const size_t> weights) const override;
};

// Summed pair weight of a pairing — the quantity MWPM minimizes, and the
// invariant property tests compare across strategies. Reads the same upper
// triangle as the strategies.
[[nodiscard]] size_t matching_cost(const std::vector<Match>& matches,
                                   size_t num_defects,
                                   std::span<const size_t> weights);

}  // namespace ftqc::decode
