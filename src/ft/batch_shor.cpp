#include "ft/batch_shor.h"

#include <algorithm>

#include "common/check.h"
#include "common/errors.h"
#include "sim/simd.h"

namespace ftqc::ft {

BatchCatRetry::BatchCatRetry(sim::BatchFrameSim& sim) : sim_(sim) {}

uint64_t BatchCatRetry::prepare(BatchGadgetRunner& gadgets,
                                const sim::Circuit& prep,
                                std::span<const uint32_t> cat,
                                std::span<const uint32_t> active_qubits,
                                const RecoveryPolicy& policy,
                                const uint64_t* active) {
  const size_t words = sim_.num_words();
  const bool herald_check =
      policy.herald_reinit && gadgets.noise().p_erase > 0;
  need_.assign(words, ~uint64_t{0});
  if (active != nullptr) std::copy_n(active, words, need_.begin());
  passed_any_.assign(words, 0);
  failed_.assign(words, 0);
  parked_.assign(2 * cat.size() * words, 0);
  uint64_t discarded = 0;

  for (int attempt = 0; attempt < policy.max_cat_attempts; ++attempt) {
    if (!batch_any_lane(need_.data(), words)) break;
    // The prep's leading R gates reset cat+check on EVERY lane, which is
    // exactly what makes whole-word replay safe: passed lanes are parked,
    // inactive lanes are scrubbed clean so the unitaries act trivially.
    const auto rows = gadgets.run(prep, active_qubits, need_.data());
    FTQC_CHECK(rows.size() == 1,
               "cat prep must measure exactly the check qubit");
    if (!policy.verify_ancilla && !herald_check) {
      // §3.3 disabled: the first attempt always passes; frames are already
      // in place, so no parking round-trip is needed.
      need_.assign(words, 0);
      break;
    }
    // Reference check outcome is 0 (the cat bits agree); a flip means the
    // verification failed and the cat is discarded (§3.3). A heralded
    // erasure on a cat qubit is a failure the check bit cannot see — the
    // qubit is maximally mixed — so the herald joins the discard decision.
    if (policy.verify_ancilla) {
      const uint64_t* flip = sim_.record().row(rows[0]);
      std::copy_n(flip, words, failed_.begin());
    } else {
      std::fill_n(failed_.begin(), words, 0);
    }
    if (herald_check) {
      for (uint32_t q : cat) {
        sim::simd::or_into(failed_.data(), sim_.herald_word(q), words);
      }
    }
    sim::simd::and_into(failed_.data(), need_.data(), words);
    discarded += batch_count_lanes(failed_.data(), words, sim_.num_shots());
    // passed_now = need & ~failed, register-wide; scratch_ holds it until
    // the parking blends below are done.
    scratch_.resize(words);
    sim::simd::andnot(scratch_.data(), need_.data(), failed_.data(), words);
    std::copy_n(failed_.begin(), words, need_.begin());
    sim::simd::or_into(passed_any_.data(), scratch_.data(), words);
    if (batch_any_lane(scratch_.data(), words)) {
      // Park the just-passed lanes' cat frames: later attempts will clobber
      // the sim's copies.
      for (size_t c = 0; c < cat.size(); ++c) {
        uint64_t* px = &parked_[2 * c * words];
        uint64_t* pz = &parked_[(2 * c + 1) * words];
        sim::simd::blend_into(px, sim_.x_flips(cat[c]), scratch_.data(),
                              words);
        sim::simd::blend_into(pz, sim_.z_flips(cat[c]), scratch_.data(),
                              words);
      }
    }
  }
  if (batch_any_lane(need_.data(), words)) {
    // Retry budget exhausted: the serial path uses the last cat unverified;
    // these lanes keep their last-attempt frames AND are surfaced in the
    // abort mask so downstream consumers can postselect them out.
    sim_.discard_lanes(need_.data());
  }
  // Restore the parked frames: XOR-inject the difference between what the
  // last attempt left behind and what each passed lane actually prepared.
  scratch_.assign(words, 0);
  for (size_t c = 0; c < cat.size(); ++c) {
    const uint64_t* px = &parked_[2 * c * words];
    const uint64_t* pz = &parked_[(2 * c + 1) * words];
    sim::simd::xor_and(scratch_.data(), sim_.x_flips(cat[c]), px,
                       passed_any_.data(), words);
    sim_.inject_x_masked(cat[c], scratch_.data());
    sim::simd::xor_and(scratch_.data(), sim_.z_flips(cat[c]), pz,
                       passed_any_.data(), words);
    sim_.inject_z_masked(cat[c], scratch_.data());
  }
  return discarded;
}

// --- BatchGenericShorRecovery -----------------------------------------------

namespace {

// Calls visit(value, lanes) once per distinct syndrome value read by the
// lanes of `mask`: row i of `rows` holds the bit of the i-th generator of
// `group`, and `value` packs it at that generator's index. Each value's
// lanes are peeled off with word ops, so the cost grows with the number of
// distinct values, not with the number of lanes.
template <typename Visit>
void for_each_syndrome_value(uint64_t group, const uint64_t* rows,
                             const uint64_t* mask, size_t words,
                             Visit&& visit) {
  std::vector<uint64_t> rest(mask, mask + words), lanes(words);
  for (size_t w = 0; w < words; ++w) {
    while (rest[w] != 0) {
      // The value the first remaining lane reads, and every lane reading it.
      const int lane = __builtin_ctzll(rest[w]);
      std::copy(rest.begin(), rest.end(), lanes.begin());
      uint64_t value = 0;
      const uint64_t* bits = rows;
      for (uint64_t left = group; left != 0; left &= left - 1, bits += words) {
        if ((bits[w] >> lane) & 1u) {
          value |= uint64_t{1} << __builtin_ctzll(left);
          sim::simd::and_into(lanes.data(), bits, words);
        } else {
          sim::simd::andnot(lanes.data(), lanes.data(), bits, words);
        }
      }
      visit(value, lanes.data());
      sim::simd::andnot(rest.data(), rest.data(), lanes.data(), words);
    }
  }
}

}  // namespace

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
  switch (pauli) {
    case 'X': sim_.inject_x(q); break;
    case 'Y': sim_.inject_y(q); break;
    case 'Z': sim_.inject_z(q); break;
    default: FTQC_CHECK(false, "inject_data expects X, Y or Z");
  }
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
  // Per data qubit, the acting lanes whose correction has an X (Z) part
  // there.
  const size_t n = extraction_.data.size();
  std::vector<uint64_t> fix_x(n * words_), fix_z(n * words_);
  for_each_syndrome_value(
      group, rows, act, words_, [&](uint64_t value, const uint64_t* lanes) {
        const pauli::PauliString correction =
            extraction_.decoder.decode(value);
        for (size_t q = 0; q < n; ++q) {
          if (correction.x_bit(q)) {
            sim::simd::or_into(&fix_x[q * words_], lanes, words_);
          }
          if (correction.z_bit(q)) {
            sim::simd::or_into(&fix_z[q * words_], lanes, words_);
          }
        }
      });
  // The serial fix is a one-layer circuit over the data block: gate noise
  // and the frame shift (the noiseless run never corrects) on each
  // corrected qubit, then storage noise on the rest, and only for the lanes
  // that act (§3.4 lanes that deferred take no fault opportunity at all).
  const sim::NoiseParams& noise = gadgets_.noise();
  std::vector<uint64_t> lanes(words_);
  for (size_t q = 0; q < n; ++q) {
    std::copy_n(&fix_x[q * words_], words_, lanes.data());
    sim::simd::or_into(lanes.data(), &fix_z[q * words_], words_);
    batch_on_gate1(sim_, noise, extraction_.data[q], lanes.data());
    sim_.inject_x_masked(extraction_.data[q], &fix_x[q * words_]);
    sim_.inject_z_masked(extraction_.data[q], &fix_z[q * words_]);
  }
  for (size_t q = 0; q < n; ++q) {
    sim::simd::andnot(lanes.data(), act, &fix_x[q * words_], words_);
    sim::simd::andnot(lanes.data(), lanes.data(), &fix_z[q * words_], words_);
    batch_on_storage(sim_, noise, extraction_.data[q], lanes.data());
  }
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

void BatchGenericShorRecovery::anticommuting_lanes(const pauli::PauliString& p,
                                                   uint64_t* out) const {
  std::fill_n(out, words_, 0);
  for (const uint32_t q : extraction_.data) {
    if (p.x_bit(q)) sim::simd::xor_into(out, sim_.z_flips(q), words_);
    if (p.z_bit(q)) sim::simd::xor_into(out, sim_.x_flips(q), words_);
  }
}

uint64_t BatchGenericShorRecovery::count_any_logical_error(
    size_t num_lanes) const {
  // Logical-parity words: the lanes whose residual anticommutes with each
  // logical operator (an X flip of logical qubit i anticommutes with Z_i,
  // a Z flip with X_i).
  const codes::StabilizerCode& code = extraction_.code;
  std::vector<const pauli::PauliString*> logicals;
  for (size_t i = 0; i < code.k(); ++i) {
    logicals.push_back(&code.logical_z(i));
    logicals.push_back(&code.logical_x(i));
  }
  std::vector<uint64_t> parity(logicals.size() * words_);
  for (size_t l = 0; l < logicals.size(); ++l) {
    anticommuting_lanes(*logicals[l], &parity[l * words_]);
  }
  // Each group's syndrome words, decoded once per distinct value: where the
  // decoded correction anticommutes with a logical operator, it flips the
  // parity of the lanes that read that value.
  std::vector<uint64_t> rows, nontrivial(words_);
  for (const uint64_t group : extraction_.groups) {
    const auto num_rows = static_cast<size_t>(__builtin_popcountll(group));
    rows.assign(num_rows * words_, 0);
    size_t row = 0;
    for (uint64_t rest = group; rest != 0; rest &= rest - 1, ++row) {
      anticommuting_lanes(code.generators()[__builtin_ctzll(rest)],
                          &rows[row * words_]);
    }
    batch_nontrivial_mask(rows.data(), num_rows, /*active=*/nullptr,
                          nontrivial.data(), words_);
    for_each_syndrome_value(
        group, rows.data(), nontrivial.data(), words_,
        [&](uint64_t value, const uint64_t* lanes) {
          const pauli::PauliString correction =
              extraction_.decoder.decode(value);
          for (size_t l = 0; l < logicals.size(); ++l) {
            if (!correction.commutes_with(*logicals[l])) {
              sim::simd::xor_into(&parity[l * words_], lanes, words_);
            }
          }
        });
  }
  for (size_t l = 1; l < logicals.size(); ++l) {
    sim::simd::or_into(parity.data(), &parity[l * words_], words_);
  }
  return batch_count_lanes(parity.data(), words_,
                           std::min(num_lanes, sim_.num_shots()));
}

uint64_t BatchGenericShorRecovery::count_retry_exhausted() const {
  return batch_count_lanes(sim_.abort_mask(), words_, sim_.num_shots());
}

}  // namespace ftqc::ft
