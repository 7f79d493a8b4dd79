#include "ft/batch_shor.h"

#include <algorithm>

#include "common/check.h"
#include "common/errors.h"

namespace ftqc::ft {

BatchGenericShorRecovery::BatchGenericShorRecovery(
    const codes::StabilizerCode& code, const sim::NoiseParams& noise,
    RecoveryPolicy policy, size_t shots, uint64_t seed)
    : extraction_(code),
      sim_(extraction_.check + 1, shots, seed),
      lanes_(sim_, noise),
      policy_(policy),
      words_(sim_.num_words()) {
  if (noise.p_leak > 0) {
    throw UnsupportedChannel("BatchGenericShorRecovery", "p_leak > 0",
                             "GenericShorRecovery");
  }
}

void BatchGenericShorRecovery::reset() {
  sim_.clear();
  cats_discarded_ = 0;
}

void BatchGenericShorRecovery::inject_data(uint32_t q, char pauli) {
  FTQC_CHECK(q < extraction_.data.size(), "data qubit index out of range");
  inject_pauli(sim_, q, pauli);
}

void BatchGenericShorRecovery::apply_memory_noise(double p) {
  for (const uint32_t q : extraction_.data) sim_.depolarize1(q, p);
}

void BatchGenericShorRecovery::run_cycle() {
  cats_discarded_ += cat_cycle(lanes_, extraction_, policy_);
}

pauli::PauliString BatchGenericShorRecovery::residual(size_t shot) const {
  pauli::PauliString r(extraction_.data.size());
  for (const uint32_t q : extraction_.data) {
    r.set_x(q, sim_.x_flip(q, shot));
    r.set_z(q, sim_.z_flip(q, shot));
  }
  return r;
}

uint64_t BatchGenericShorRecovery::count_any_logical_error(
    size_t num_lanes) const {
  std::vector<uint64_t> failed(words_);
  batch_logical_errors(sim_, extraction_.decoder, extraction_.groups,
                       failed.data());
  return batch_count_lanes(failed.data(), words_,
                           std::min(num_lanes, sim_.num_shots()));
}

uint64_t BatchGenericShorRecovery::count_retry_exhausted() const {
  return batch_count_lanes(sim_.abort_mask(), words_, sim_.num_shots());
}

}  // namespace ftqc::ft
