#include "codes/concatenated.h"

#include "common/check.h"
#include "gf2/hamming.h"

namespace ftqc::codes {

ConcatenatedSteane::ConcatenatedSteane(size_t levels) : levels_(levels) {
  FTQC_CHECK(levels >= 1 && levels <= 8, "supported levels: 1..8 (7^8 qubits)");
  block_size_ = 1;
  for (size_t l = 0; l < levels; ++l) block_size_ *= 7;
}

std::vector<bool> ConcatenatedSteane::decode_to_level(const gf2::BitVec& errors,
                                                      size_t level) const {
  FTQC_CHECK(errors.size() == block_size_, "error pattern size mismatch");
  FTQC_CHECK(level <= levels_, "level out of range");
  std::vector<bool> bits(block_size_);
  for (size_t i = 0; i < block_size_; ++i) bits[i] = errors.get(i);
  const gf2::Hamming743& hamming = gf2::hamming743();
  for (size_t l = 0; l < level; ++l) {
    std::vector<bool> up(bits.size() / 7);
    for (size_t b = 0; b < up.size(); ++b) {
      gf2::BitVec block(7);
      for (size_t q = 0; q < 7; ++q) block.set(q, bits[7 * b + q]);
      up[b] = hamming.decode_logical(block);
    }
    bits = std::move(up);
  }
  return bits;
}

bool ConcatenatedSteane::decode_logical(const gf2::BitVec& errors) const {
  return decode_to_level(errors, levels_)[0];
}

double ConcatenatedSteane::logical_failure_rate(double p, size_t shots,
                                                Rng& rng) const {
  size_t failures = 0;
  gf2::BitVec errors(block_size_);
  for (size_t s = 0; s < shots; ++s) {
    errors.clear();
    for (size_t q = 0; q < block_size_; ++q) {
      if (rng.bernoulli(p)) errors.set(q, true);
    }
    failures += decode_logical(errors);
  }
  return static_cast<double>(failures) / static_cast<double>(shots);
}

double ConcatenatedSteane::block_failure_exact(double p) {
  // Sum over all 2^7 patterns: P(pattern) * [decodes to logical flip].
  const gf2::Hamming743& hamming = gf2::hamming743();
  double total = 0;
  for (uint32_t pattern = 0; pattern < 128; ++pattern) {
    gf2::BitVec block(7);
    for (size_t q = 0; q < 7; ++q) block.set(q, (pattern >> q) & 1u);
    if (!hamming.decode_logical(block)) continue;
    const int w = __builtin_popcount(pattern);
    double prob = 1;
    for (int i = 0; i < w; ++i) prob *= p;
    for (int i = w; i < 7; ++i) prob *= (1 - p);
    total += prob;
  }
  return total;
}

double ConcatenatedSteane::code_capacity_threshold() {
  // The nontrivial fixed point of p -> block_failure_exact(p) in (0, 1/2),
  // found by bisection on f(p) - p.
  double lo = 1e-6, hi = 0.5;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (block_failure_exact(mid) < mid) {
      lo = mid;  // below threshold: decoding helps
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace ftqc::codes
