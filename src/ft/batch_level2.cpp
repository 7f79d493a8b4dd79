#include "ft/batch_level2.h"

#include <algorithm>

#include "common/check.h"
#include "common/errors.h"
#include "ft/concatenated_recovery.h"
#include "sim/simd.h"

namespace ftqc::ft {

BatchLevel2Recovery::BatchLevel2Recovery(const sim::NoiseParams& noise,
                                         RecoveryPolicy policy, size_t shots,
                                         uint64_t seed)
    : sim_(kNumQubits, shots, seed),
      lanes_(sim_, noise),
      policy_(policy),
      words_(sim_.num_words()) {
  if (noise.p_leak > 0) {
    throw UnsupportedChannel("BatchLevel2Recovery", "p_leak > 0",
                             "Level2Recovery");
  }
}

void BatchLevel2Recovery::reset() { sim_.clear(); }

void BatchLevel2Recovery::inject_data(uint32_t q, char pauli) {
  FTQC_CHECK(q < kBlock, "data qubit index out of range");
  inject_pauli(sim_, q, pauli);
}

void BatchLevel2Recovery::apply_memory_noise(double p) {
  for (uint32_t q = 0; q < kBlock; ++q) sim_.depolarize1(q, p);
}

void BatchLevel2Recovery::run_cycle() {
  level2_cycle(lanes_, policy_);
}

void BatchLevel2Recovery::residual_logical(bool phase_type,
                                           uint64_t* out) const {
  const uint64_t* rows[49];
  for (uint32_t q = 0; q < kBlock; ++q) {
    rows[q] = phase_type ? sim_.z_flips(q) : sim_.x_flips(q);
  }
  std::vector<uint64_t> logicals(7 * words_);
  level2_decode_rows(rows, logicals.data(), out, words_);
}

uint64_t BatchLevel2Recovery::count_any_logical_error(size_t num_lanes) const {
  std::vector<uint64_t> lx(words_), lz(words_);
  residual_logical(/*phase_type=*/false, lx.data());
  residual_logical(/*phase_type=*/true, lz.data());
  sim::simd::or_into(lx.data(), lz.data(), words_);
  return batch_count_lanes(lx.data(), words_,
                           std::min(num_lanes, sim_.num_shots()));
}

// One lane only: the whole-register bit-sliced decode would make a
// loop-over-shots caller quadratic.
bool BatchLevel2Recovery::logical_x_error(size_t shot) const {
  return level2_decode_shot([&](size_t q) { return sim_.x_flip(q, shot); });
}

bool BatchLevel2Recovery::logical_z_error(size_t shot) const {
  return level2_decode_shot([&](size_t q) { return sim_.z_flip(q, shot); });
}

}  // namespace ftqc::ft
