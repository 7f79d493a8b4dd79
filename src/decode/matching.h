#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace ftqc::decode {

// Integer edge weight between two defects, by index into the caller's defect
// list. Matching strategies see nothing but this metric, so one strategy
// serves the 2D torus, the 3D space-time graph, and any future defect graph.
using DistanceFn = std::function<size_t(size_t, size_t)>;

struct Match {
  uint32_t a;
  uint32_t b;
};

// Pairs up an even set of defects, minimizing (exactly or approximately) the
// summed metric cost. Matching is the workhorse of surface-code decoding
// (Gottesman arXiv:2210.15844 §5, Paler & Devitt arXiv:1508.03695): each
// matched pair is corrected along a geodesic between its defects, and the
// quality of the pairing sets the code's threshold.
class MatchingStrategy {
 public:
  virtual ~MatchingStrategy() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  // `num_defects` must be even; returns num_defects/2 disjoint pairs.
  [[nodiscard]] virtual std::vector<Match> match(
      size_t num_defects, const DistanceFn& distance) const = 0;
};

// Repeatedly matches the globally closest remaining pair. O(n^3), no
// optimality guarantee — on the toric code it tops out near an 8% threshold
// where true MWPM (BlossomMatching, decode/blossom.h) reaches ~10.3%.
class GreedyMatching final : public MatchingStrategy {
 public:
  [[nodiscard]] const char* name() const override { return "greedy"; }
  [[nodiscard]] std::vector<Match> match(
      size_t num_defects, const DistanceFn& distance) const override;
};

// Summed metric cost of a pairing — the quantity MWPM minimizes, and the
// invariant property tests compare across strategies.
[[nodiscard]] size_t matching_cost(const std::vector<Match>& matches,
                                   const DistanceFn& distance);

}  // namespace ftqc::decode
