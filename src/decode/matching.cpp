#include "decode/matching.h"

#include <limits>

#include "common/check.h"

namespace ftqc::decode {

std::vector<Match> GreedyMatching::match(size_t num_defects,
                                         const DistanceFn& distance) const {
  FTQC_CHECK(num_defects % 2 == 0, "defects come in pairs");
  std::vector<Match> out;
  out.reserve(num_defects / 2);
  // The closest-pair scan revisits every surviving pair once per matched
  // pair; evaluating the caller's metric inside that scan costs O(n^3)
  // DistanceFn calls. Evaluate each unordered pair exactly once up front and
  // scan the buffer instead.
  std::vector<size_t> dist_matrix(num_defects * num_defects, 0);
  for (size_t i = 0; i < num_defects; ++i) {
    for (size_t j = i + 1; j < num_defects; ++j) {
      const size_t d = distance(i, j);
      dist_matrix[i * num_defects + j] = d;
      dist_matrix[j * num_defects + i] = d;
    }
  }
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
        const size_t d = dist_matrix[i * num_defects + j];
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

size_t matching_cost(const std::vector<Match>& matches,
                     const DistanceFn& distance) {
  size_t total = 0;
  for (const Match& m : matches) total += distance(m.a, m.b);
  return total;
}

}  // namespace ftqc::decode
