#pragma once

#include "decode/matching.h"

namespace ftqc::decode {

// Exact minimum-weight perfect matching for ANY even defect count: the
// primal-dual blossom algorithm (Edmonds 1965) with odd-set contraction,
// O(n³) time and O(n²) memory. Large-L / high-p / many-round space-time
// instances get a true global optimum with no instance-size ceiling, which
// puts the toric threshold at optimal matching's ~0.103.
//
// Internals (see blossom.cpp): the minimization is run as maximum-weight
// matching on the complement weights w' = w_max + 1 - w (all positive, so on
// a complete graph the maximum-weight matching is perfect and minimizes the
// original cost). Dual variables stay half-integral by doubling edge weights
// inside the slack arithmetic; odd alternating cycles contract into blossom
// pseudo-vertices that expand lazily when their dual hits zero.
//
// Reads only the strict upper triangle of the row-major weight matrix
// (weights[i * n + j], i < j), taking w(j, i) = w(i, j); each weight must be
// below 2^40. Each thread keeps one solver whose buffers are reused across
// solves, so concurrent calls are safe and a warm solve allocates only its
// result.
class BlossomMatching final : public MatchingStrategy {
 public:
  [[nodiscard]] const char* name() const override { return "blossom"; }
  [[nodiscard]] std::vector<Match> match(
      size_t num_defects, std::span<const size_t> weights) const override;
};

}  // namespace ftqc::decode
