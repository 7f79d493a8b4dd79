#include "universal/batch_flag_recovery.h"

#include <algorithm>

#include "common/check.h"
#include "common/errors.h"
#include "sim/simd.h"

namespace ftqc::universal {

using pauli::PauliString;

BatchFlagRecovery::BatchFlagRecovery(const codes::StabilizerCode& code,
                                     const sim::NoiseParams& noise,
                                     ft::RecoveryPolicy policy, size_t shots,
                                     uint64_t seed)
    : extraction_(code),
      sim_(code.n() + 2, shots, seed),
      gadgets_(sim_, noise),
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

void BatchFlagRecovery::measure_unflagged(size_t g, const uint64_t* active,
                                          uint64_t* out) {
  const auto rows =
      gadgets_.run(extraction_.unflagged[g], extraction_.noflag_qubits, active);
  FTQC_CHECK(rows.size() == 1, "unflagged comb reads the ancilla");
  std::copy_n(sim_.record().row(rows[0]), words_, out);
  sim_.reset(extraction_.ancilla);
  sim_.reset(extraction_.flag);
}

void BatchFlagRecovery::apply_fixes(const std::vector<uint64_t>& fix_x,
                                    const std::vector<uint64_t>& fix_z) {
  // A lane whose correction is the identity runs no fix circuit at all
  // (the serial early return), so only the fixing lanes take noise.
  std::vector<uint64_t> fixing(words_, 0);
  for (size_t q = 0; q < extraction_.data.size(); ++q) {
    sim::simd::or_into(fixing.data(), &fix_x[q * words_], words_);
    sim::simd::or_into(fixing.data(), &fix_z[q * words_], words_);
  }
  ft::batch_apply_fix(sim_, gadgets_.noise(), extraction_.data, fix_x.data(),
                      fix_z.data(), fixing.data());
}

void BatchFlagRecovery::correct_flagged(const std::vector<uint64_t>& flag_rows,
                                        const uint64_t* syndrome_rows,
                                        const uint64_t* flagged_mask) {
  const size_t n = extraction_.data.size();
  const size_t num_gen = extraction_.code.num_generators();
  std::vector<uint64_t> fix_x(n * words_), fix_z(n * words_);
  // Peel the flagged lanes off by FIRST fired generator, then group each
  // generator's lanes by follow-up syndrome; each key decodes once.
  std::vector<uint64_t> unclaimed(flagged_mask, flagged_mask + words_);
  std::vector<uint64_t> first(words_);
  for (size_t g = 0;
       g < num_gen && ft::batch_any_lane(unclaimed.data(), words_); ++g) {
    const uint64_t* fired = &flag_rows[g * words_];
    std::copy(unclaimed.begin(), unclaimed.end(), first.begin());
    sim::simd::and_into(first.data(), fired, words_);
    sim::simd::andnot(unclaimed.data(), unclaimed.data(), fired, words_);
    ft::for_each_syndrome_value(
        all_generators_, syndrome_rows, first.data(), words_,
        [&](uint64_t value, const uint64_t* lanes) {
          const PauliString* flagged = extraction_.table.decode(g, value);
          ft::batch_add_fix(
              flagged != nullptr ? *flagged : extraction_.decoder.decode(value),
              lanes, fix_x.data(), fix_z.data(), words_);
        });
  }
  apply_fixes(fix_x, fix_z);
}

void BatchFlagRecovery::run_cycle() {
  const size_t num_gen = extraction_.code.num_generators();
  // Round 1: flagged combs on every lane.
  std::vector<uint64_t> syn1(num_gen * words_), flag_rows(num_gen * words_);
  std::vector<uint64_t> flagged(words_, 0);
  for (size_t g = 0; g < num_gen; ++g) {
    const auto rows = gadgets_.run(extraction_.flagged[g],
                                   extraction_.all_qubits,
                                   /*lane_mask=*/nullptr);
    FTQC_CHECK(rows.size() == 2, "flagged comb reads ancilla + flag");
    std::copy_n(sim_.record().row(rows[0]), words_, &syn1[g * words_]);
    std::copy_n(sim_.record().row(rows[1]), words_, &flag_rows[g * words_]);
    sim_.reset(extraction_.ancilla);
    sim_.reset(extraction_.flag);
    sim::simd::or_into(flagged.data(), &flag_rows[g * words_], words_);
    flags_raised_ +=
        ft::batch_count_lanes(&flag_rows[g * words_], words_, sim_.num_shots());
  }
  if (ft::batch_any_lane(flagged.data(), words_)) {
    // Clean re-extraction, then the flag-conditioned decode, on the flagged
    // lanes only.
    std::vector<uint64_t> syn2(num_gen * words_);
    for (size_t g = 0; g < num_gen; ++g) {
      measure_unflagged(g, flagged.data(), &syn2[g * words_]);
    }
    correct_flagged(flag_rows, syn2.data(), flagged.data());
  }
  // Unflagged lanes: the ordinary §3.4 repeat policy, with round 1's
  // syndrome as the first reading.
  std::vector<uint64_t> unflagged(words_);
  for (size_t w = 0; w < words_; ++w) unflagged[w] = ~flagged[w];
  bool first_call = true;
  ft::run_batch_repeat_policy(
      num_gen, words_, policy_.repeat_nontrivial_syndrome, unflagged.data(),
      [&](const uint64_t* mask, uint64_t* out) {
        if (first_call) {
          first_call = false;
          std::copy(syn1.begin(), syn1.end(), out);
          return;
        }
        for (size_t g = 0; g < num_gen; ++g) {
          measure_unflagged(g, mask, out + g * words_);
        }
      },
      [&](const uint64_t* syn, const uint64_t* act) {
        // Decode through the plain lookup table (no flag fired).
        const size_t n = extraction_.data.size();
        std::vector<uint64_t> fix_x(n * words_), fix_z(n * words_);
        ft::for_each_syndrome_value(
            all_generators_, syn, act, words_,
            [&](uint64_t value, const uint64_t* lanes) {
              ft::batch_add_fix(extraction_.decoder.decode(value), lanes,
                                fix_x.data(), fix_z.data(), words_);
            });
        apply_fixes(fix_x, fix_z);
      });
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
