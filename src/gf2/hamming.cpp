#include "gf2/hamming.h"

#include <algorithm>

#include "gf2/linalg.h"

namespace ftqc::gf2 {

Hamming743::Hamming743()
    : h_(BitMat::from_rows({
          "0001111",
          "0110011",
          "1010101",
      })),
      h_sys_(BitMat::from_rows({
          "1001011",
          "0101101",
          "0011110",
      })) {
  // Enumerate codewords by brute force over all 7-bit words; 16 must survive.
  for (uint32_t w = 0; w < 128; ++w) {
    BitVec v(kN);
    for (size_t i = 0; i < kN; ++i) v.set(i, (w >> i) & 1u);
    if (!is_codeword(v)) continue;
    all_.push_back(static_cast<uint8_t>(w));
    if (v.parity()) {
      odd_.push_back(static_cast<uint8_t>(w));
    } else {
      even_.push_back(static_cast<uint8_t>(w));
    }
  }
  FTQC_CHECK(all_.size() == 16, "Hamming code must have 16 codewords");
  FTQC_CHECK(even_.size() == 8 && odd_.size() == 8,
             "even/odd Hamming subsets must have 8 words each");
}

const Hamming743& hamming743() {
  static const Hamming743 kCode;
  return kCode;
}

BitVec Hamming743::correct(BitVec word) const {
  const size_t pos = error_position(syndrome(word));
  if (pos < kN) word.flip(pos);
  return word;
}

size_t Hamming743::error_position(const BitVec& syn) const {
  FTQC_CHECK(syn.size() == 3, "Hamming syndrome must have 3 bits");
  // Rows of Eq. (1) are MSB-first: syndrome bits (s0,s1,s2) encode the
  // 1-based position as s0*4 + s1*2 + s2.
  const size_t value = (syn.get(0) ? 4u : 0u) | (syn.get(1) ? 2u : 0u) |
                       (syn.get(2) ? 1u : 0u);
  return value == 0 ? kN : value - 1;
}

size_t Hamming743::brute_force_distance() const {
  size_t best = kN;
  for (uint8_t w : all_) {
    if (w == 0) continue;
    best = std::min(best, static_cast<size_t>(__builtin_popcount(w)));
  }
  return best;
}

LinearCode::LinearCode(BitMat check_matrix)
    : h_(std::move(check_matrix)), rank_(rank(h_)), gen_(kernel_basis(h_)) {
  FTQC_CHECK(gen_.size() == k(), "kernel basis size must equal k");
}

size_t LinearCode::brute_force_distance() const {
  FTQC_CHECK(k() <= 20, "distance exhaustion limited to k <= 20");
  size_t best = n();
  const size_t count = size_t{1} << k();
  for (size_t m = 1; m < count; ++m) {
    BitVec v(n());
    for (size_t i = 0; i < k(); ++i) {
      if ((m >> i) & 1u) v ^= gen_[i];
    }
    best = std::min(best, v.popcount());
  }
  return best;
}

BitMat hamming_check_matrix(size_t r) {
  FTQC_CHECK(r >= 2 && r <= 16, "hamming_check_matrix: 2 <= r <= 16");
  const size_t n = (size_t{1} << r) - 1;
  BitMat h(r, n);
  for (size_t col = 0; col < n; ++col) {
    const size_t value = col + 1;
    for (size_t row = 0; row < r; ++row) {
      // Row 0 holds the most significant bit, matching Eq. (1).
      h.set(row, col, (value >> (r - 1 - row)) & 1u);
    }
  }
  return h;
}

}  // namespace ftqc::gf2
