#include "universal/magic_pipeline.h"

#include <algorithm>

#include "codes/library.h"
#include "common/check.h"
#include "ft/batch_recovery.h"
#include "sim/simd.h"

namespace ftqc::universal {

MagicStatePipeline::MagicStatePipeline(const sim::NoiseParams& noise,
                                       double eps_in, size_t shots,
                                       uint64_t seed)
    : noise_(noise),
      eps_in_(eps_in),
      rec_(codes::reed_muller15(), noise, ft::RecoveryPolicy{}, shots, seed),
      words_(rec_.num_words()) {
  FTQC_CHECK(eps_in >= 0 && eps_in <= 1, "eps_in is a probability");
}

void MagicStatePipeline::fill_bernoulli(double p, std::vector<uint64_t>& out) {
  std::fill(out.begin(), out.end(), 0);
  if (p <= 0) return;
  const auto hits = rec_.frames().fill_hit_words(p);
  if (!hits) return;
  if (hits.dense) {
    std::fill(out.begin(), out.end(), ~uint64_t{0});
    return;
  }
  for (size_t k = 0; k < hits.num_dirty; ++k) {
    out[hits.dirty[k]] = hits.bits[hits.dirty[k]];
  }
}

MagicPipelineStats MagicStatePipeline::run(size_t rounds) {
  const auto& code = codes::reed_muller15();
  const size_t shots = rec_.num_shots();
  MagicPipelineStats stats;
  std::vector<uint64_t> e(15 * words_);
  std::vector<uint64_t> z_in(words_), cx_noise(words_);
  std::vector<uint64_t> reject(words_), out_err(words_), parity(words_);

  for (size_t round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < 15; ++i) {
      // One flag-verified injection: the raw state's twirled Z lands as the
      // block's logical Z̄ (zero syndrome — recovery cannot and should not
      // touch it), then a full recovery cycle under circuit noise models
      // the teleportation gadget's flag-verified correction round.
      rec_.reset();
      fill_bernoulli(eps_in_, z_in);
      for (size_t q = 0; q < code.n(); ++q) {
        if (code.logical_z(0).z_bit(q)) {
          rec_.frames().inject_z_masked(static_cast<uint32_t>(q), z_in.data());
        }
      }
      rec_.run_cycle();
      uint64_t* ei = &e[i * words_];
      rec_.logical_error_lanes(ei);
      stats.injected_bad += ft::batch_count_lanes(ei, words_, shots);
      // The distillation circuit touches each injected block with one
      // transversal-CX layer; fold its eps_gate2 as an extra flip.
      fill_bernoulli(noise_.eps_gate2, cx_noise);
      sim::simd::xor_into(ei, cx_noise.data(), words_);
    }
    stats.injections += 15 * shots;
    stats.attempts += shots;

    // The four X-hyperplane parity checks: an attempt is rejected when any
    // check reads odd. The undetected patterns are exactly the [15,11,3]
    // Hamming codewords; the output T error is their overlap with
    // X̄ = X^⊗15, i.e. the total parity.
    std::fill(reject.begin(), reject.end(), 0);
    for (size_t j = 0; j < 4; ++j) {
      std::fill(parity.begin(), parity.end(), 0);
      const auto& support = code.generators()[j].x_part();
      for (size_t i = 0; i < 15; ++i) {
        if (support.get(i)) {
          sim::simd::xor_into(parity.data(), &e[i * words_], words_);
        }
      }
      sim::simd::or_into(reject.data(), parity.data(), words_);
    }
    std::fill(out_err.begin(), out_err.end(), 0);
    for (size_t i = 0; i < 15; ++i) {
      sim::simd::xor_into(out_err.data(), &e[i * words_], words_);
    }
    const uint64_t rejected = ft::batch_count_lanes(reject.data(), words_, shots);
    stats.accepted += shots - rejected;
    for (size_t w = 0; w < words_; ++w) out_err[w] &= ~reject[w];
    stats.accepted_bad += ft::batch_count_lanes(out_err.data(), words_, shots);
  }
  return stats;
}

}  // namespace ftqc::universal
