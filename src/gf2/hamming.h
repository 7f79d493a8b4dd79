#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "gf2/bitmat.h"

namespace ftqc::gf2 {

// The classical [7,4,3] Hamming code, exactly as used in §2 of the paper.
//
// Two equivalent parity-check matrices appear in the paper: Eq. (1), whose
// i-th column is the binary expansion of i+1 (so the syndrome literally spells
// the error position), and Eq. (15), the systematic form used by the encoding
// circuit of Fig. 3. Both are exposed; they differ by a column permutation.
class Hamming743 {
 public:
  static constexpr size_t kN = 7;  // block length
  static constexpr size_t kK = 4;  // message bits
  static constexpr size_t kD = 3;  // minimum distance

  Hamming743();

  // Parity check matrix of Eq. (1): column i is binary(i+1), MSB first row.
  [[nodiscard]] const BitMat& check_matrix() const { return h_; }
  // Systematic parity check matrix of Eq. (15).
  [[nodiscard]] const BitMat& check_matrix_systematic() const { return h_sys_; }

  // 3-bit syndrome H·v of a 7-bit word (Eq. 2/3).
  [[nodiscard]] BitVec syndrome(const BitVec& word) const { return h_.mul(word); }

  [[nodiscard]] bool is_codeword(const BitVec& word) const {
    return !syndrome(word).any();
  }

  // Single-error correction: returns the corrected word. A zero syndrome
  // leaves the word unchanged; syndrome s points at bit s-1 (Eq. 3).
  [[nodiscard]] BitVec correct(BitVec word) const;

  // Position (0-based) indicated by a syndrome, or kN when trivial.
  [[nodiscard]] size_t error_position(const BitVec& syn) const;

  // All 16 codewords, as 7-bit integers bit i = qubit i (index 0 = leftmost
  // column of H). Order: even-weight words first, then odd-weight (the
  // supports of Steane's |0>_code, Eq. 6, and |1>_code, Eq. 7).
  [[nodiscard]] const std::vector<uint8_t>& codewords() const { return all_; }
  [[nodiscard]] const std::vector<uint8_t>& even_codewords() const { return even_; }
  [[nodiscard]] const std::vector<uint8_t>& odd_codewords() const { return odd_; }

  // Classical decode of a measured 7-bit word to the logical bit of Steane's
  // code: correct one error, then take the parity of the corrected word
  // (§2: "the parity of that codeword is the value of the logical qubit").
  [[nodiscard]] bool decode_logical(const BitVec& word) const {
    return correct(word).parity();
  }

  // Minimum distance by exhaustion (sanity invariant; must equal 3).
  [[nodiscard]] size_t brute_force_distance() const;

 private:
  BitMat h_;
  BitMat h_sys_;
  std::vector<uint8_t> all_;
  std::vector<uint8_t> even_;
  std::vector<uint8_t> odd_;
};

// The one process-wide Hamming743, built on first use (thread-safe static
// initialization) and read-only afterwards. Every driver, circuit builder
// and decoder reads it here, so a driver built per shot does not re-run the
// codeword search above.
[[nodiscard]] const Hamming743& hamming743();

// General binary linear code defined by a parity check matrix; used for the
// larger-code discussions of §3.6 / §5 (e.g. the [15,11,3] Hamming code that
// seeds the [[15,7,3]] CSS construction).
class LinearCode {
 public:
  explicit LinearCode(BitMat check_matrix);

  [[nodiscard]] const BitMat& check_matrix() const { return h_; }
  [[nodiscard]] size_t n() const { return h_.cols(); }
  [[nodiscard]] size_t k() const { return h_.cols() - rank_; }

  [[nodiscard]] BitVec syndrome(const BitVec& word) const { return h_.mul(word); }
  [[nodiscard]] bool is_codeword(const BitVec& word) const {
    return !syndrome(word).any();
  }

  // Generator rows: a basis of the codeword space (kernel of H).
  [[nodiscard]] const std::vector<BitVec>& generator_basis() const { return gen_; }

  // Minimum distance by exhaustive search over the codeword space
  // (feasible for k <= ~20).
  [[nodiscard]] size_t brute_force_distance() const;

 private:
  BitMat h_;
  size_t rank_;
  std::vector<BitVec> gen_;
};

// Parity check matrix of the [2^r - 1, 2^r - 1 - r, 3] Hamming family:
// column i (0-based) is the binary expansion of i+1.
[[nodiscard]] BitMat hamming_check_matrix(size_t r);

}  // namespace ftqc::gf2
