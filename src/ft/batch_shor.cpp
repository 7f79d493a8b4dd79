#include "ft/batch_shor.h"

#include <algorithm>

#include "common/check.h"
#include "common/errors.h"
#include "sim/simd.h"

namespace ftqc::ft {

BatchGenericShorRecovery::BatchGenericShorRecovery(
    const codes::StabilizerCode& code, const sim::NoiseParams& noise,
    RecoveryPolicy policy, size_t shots, uint64_t seed)
    : extraction_(code),
      sim_(extraction_.check + 1, shots, seed),
      gadgets_(sim_, noise),
      retry_(sim_),
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

void BatchGenericShorRecovery::extract_syndrome(uint64_t group,
                                                const uint64_t* active,
                                                uint64_t* rows) {
  for (uint64_t rest = group; rest != 0; rest &= rest - 1, rows += words_) {
    const CatExtraction::Generator& circuits =
        extraction_.generators[__builtin_ctzll(rest)];
    const std::span<const uint32_t> cat(extraction_.cat.data(),
                                        circuits.width);
    cats_discarded_ += retry_.prepare(gadgets_, circuits.prep, cat,
                                      extraction_.all_qubits, policy_, active);
    const auto readout =
        gadgets_.run(circuits.readout, extraction_.all_qubits, active);
    FTQC_CHECK(readout.size() == circuits.width,
               "generator readout width mismatch");
    std::fill_n(rows, words_, 0);
    for (const size_t r : readout) {
      sim::simd::xor_into(rows, sim_.record().row(r), words_);
    }
  }
}

void BatchGenericShorRecovery::correct(uint64_t group, const uint64_t* rows,
                                       const uint64_t* act) {
  if (!batch_any_lane(act, words_)) return;
  const size_t n = extraction_.data.size();
  std::vector<uint64_t> fix_x(n * words_), fix_z(n * words_);
  for_each_syndrome_value(
      group, rows, act, words_, [&](uint64_t value, const uint64_t* lanes) {
        batch_add_fix(extraction_.decoder.decode(value), lanes, fix_x.data(),
                      fix_z.data(), words_);
      });
  batch_apply_fix(sim_, gadgets_.noise(), extraction_.data, fix_x.data(),
                  fix_z.data(), act);
}

void BatchGenericShorRecovery::run_cycle() {
  for (const uint64_t group : extraction_.groups) {
    run_batch_repeat_policy(
        static_cast<size_t>(__builtin_popcountll(group)), words_,
        policy_.repeat_nontrivial_syndrome, /*active=*/nullptr,
        [&](const uint64_t* mask, uint64_t* out) {
          extract_syndrome(group, mask, out);
        },
        [&](const uint64_t* syn, const uint64_t* act) {
          correct(group, syn, act);
        });
  }
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
