#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "gf2/bitvec.h"

namespace ftqc::codes {

// The concatenated Steane code of §5 (Fig. 14): an L-level hierarchy in
// which each qubit of a level-(l) block is itself a level-(l-1) block, for a
// total block size of 7^L physical qubits.
//
// Because Steane's code is CSS and self-dual, X and Z errors decode
// independently and identically; this class works on one error type at a
// time as a bit vector over the 7^L physical qubits. Decoding proceeds
// bottom-up — "recover from errors ... by dividing and conquering" — each
// block of 7 is Hamming-corrected and its logical value passed upward.
class ConcatenatedSteane {
 public:
  explicit ConcatenatedSteane(size_t levels);

  [[nodiscard]] size_t levels() const { return levels_; }
  [[nodiscard]] size_t block_size() const { return block_size_; }

  // Logical error bit left after ideal hierarchical decoding of a physical
  // error pattern (one bit per physical qubit, 1 = flipped).
  [[nodiscard]] bool decode_logical(const gf2::BitVec& errors) const;

  // Per-level intermediate: the logical values of every level-`level` block
  // (level 0 = the raw bits).
  [[nodiscard]] std::vector<bool> decode_to_level(const gf2::BitVec& errors,
                                                  size_t level) const;

  // Monte Carlo estimate of the logical failure probability under iid
  // physical flips with probability p (code-capacity noise).
  [[nodiscard]] double logical_failure_rate(double p, size_t shots, Rng& rng) const;

  // Exact single-level flow map of Eq. (33) for code-capacity noise: the
  // probability that a 7-qubit Hamming block decodes to a logical flip when
  // each qubit is flipped independently with probability p. Expanding around
  // p = 0 gives 21 p² + O(p³) — the origin of the 1/21 threshold.
  [[nodiscard]] static double block_failure_exact(double p);

  // Fixed point of the flow map p -> block_failure_exact(p): the
  // code-capacity threshold of the concatenated Steane code.
  [[nodiscard]] static double code_capacity_threshold();

 private:
  size_t levels_;
  size_t block_size_;
};

}  // namespace ftqc::codes
