#include "decode/matching.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace ftqc::decode {

std::vector<Match> GreedyMatching::match(
    size_t num_defects, std::span<const size_t> weights) const {
  FTQC_CHECK(num_defects % 2 == 0, "defects come in pairs");
  FTQC_CHECK(weights.size() == num_defects * num_defects,
             "weight matrix must be num_defects x num_defects");
  std::vector<Match> out;
  out.reserve(num_defects / 2);
  // Repeatedly match the globally closest remaining pair, the first
  // lexicographic (i, j) winning ties.
  std::vector<bool> used(num_defects, false);
  for (size_t matched = 0; matched < num_defects; matched += 2) {
    size_t best_i = 0, best_j = 0;
    size_t best = std::numeric_limits<size_t>::max();
    for (size_t i = 0; i < num_defects; ++i) {
      if (used[i]) continue;
      for (size_t j = i + 1; j < num_defects; ++j) {
        if (used[j]) continue;
        const size_t d = weights[i * num_defects + j];
        if (d < best) {
          best = d;
          best_i = i;
          best_j = j;
        }
      }
    }
    used[best_i] = used[best_j] = true;
    out.push_back({static_cast<uint32_t>(best_i), static_cast<uint32_t>(best_j)});
  }
  return out;
}

size_t matching_cost(const std::vector<Match>& matches, size_t num_defects,
                     std::span<const size_t> weights) {
  FTQC_CHECK(weights.size() == num_defects * num_defects,
             "weight matrix must be num_defects x num_defects");
  size_t total = 0;
  for (const Match& m : matches) {
    const size_t lo = std::min(m.a, m.b);
    const size_t hi = std::max(m.a, m.b);
    total += weights[lo * num_defects + hi];
  }
  return total;
}

}  // namespace ftqc::decode
