#include "universal/batch_flag_recovery.h"

#include <algorithm>

#include "common/check.h"
#include "common/errors.h"
#include "universal/flag_recovery.h"

namespace ftqc::universal {

using pauli::PauliString;

BatchFlagRecovery::BatchFlagRecovery(const codes::StabilizerCode& code,
                                     const sim::NoiseParams& noise,
                                     ft::RecoveryPolicy policy, size_t shots,
                                     uint64_t seed)
    : extraction_(code),
      sim_(code.n() + 2, shots, seed),
      lanes_(sim_, noise),
      policy_(policy),
      words_(sim_.num_words()),
      all_generators_(~uint64_t{0} >> (64 - code.num_generators())) {
  if (noise.p_leak > 0) {
    throw UnsupportedChannel("BatchFlagRecovery", "p_leak > 0",
                             "FlagRecovery");
  }
}

void BatchFlagRecovery::reset() {
  sim_.clear();
  flags_raised_ = 0;
}

void BatchFlagRecovery::inject_data(uint32_t q, char pauli) {
  FTQC_CHECK(q < extraction_.code.n(), "data qubit index out of range");
  ft::inject_pauli(sim_, q, pauli);
}

void BatchFlagRecovery::apply_memory_noise(double p) {
  for (const uint32_t q : extraction_.data) sim_.depolarize1(q, p);
}

void BatchFlagRecovery::run_cycle() {
  flags_raised_ += flag_cycle(lanes_, extraction_, policy_);
}

PauliString BatchFlagRecovery::residual(size_t shot) const {
  PauliString r(extraction_.code.n());
  for (const uint32_t q : extraction_.data) {
    r.set_x(q, sim_.x_flip(q, shot));
    r.set_z(q, sim_.z_flip(q, shot));
  }
  return r;
}

bool BatchFlagRecovery::any_logical_error(size_t shot) const {
  return extraction_.decoder.residual_effect(residual(shot)).any();
}

void BatchFlagRecovery::logical_error_lanes(uint64_t* out) const {
  ft::batch_logical_errors(sim_, extraction_.decoder,
                           {&all_generators_, 1}, out);
}

uint64_t BatchFlagRecovery::count_any_logical_error(size_t num_lanes) const {
  std::vector<uint64_t> failed(words_);
  logical_error_lanes(failed.data());
  return ft::batch_count_lanes(failed.data(), words_,
                               std::min(num_lanes, sim_.num_shots()));
}

}  // namespace ftqc::universal
