#include "ft/batch_recovery.h"

#include <algorithm>

#include "common/check.h"
#include "common/errors.h"
#include "ft/lanes.h"
#include "ft/steane_layout.h"
#include "sim/simd.h"

namespace ftqc::ft {

namespace {

// Depolarize-or-biased 1-qubit draw at rate eps (no erasure): the storage
// half of the serial StochasticInjector::pauli1.
void batch_pauli1(sim::BatchFrameSim& sim, const sim::NoiseParams& noise,
                  uint32_t q, double eps, const uint64_t* lane_mask) {
  if (noise.is_biased()) {
    sim.pauli_channel1(q, eps * noise.frac_x(), eps * noise.frac_y(),
                       eps * noise.frac_z(), lane_mask);
  } else {
    sim.depolarize1(q, eps, lane_mask);
  }
}

}  // namespace

void batch_on_gate1(sim::BatchFrameSim& sim, const sim::NoiseParams& noise,
                    uint32_t q, const uint64_t* lane_mask) {
  batch_pauli1(sim, noise, q, noise.eps_gate1, lane_mask);
  if (noise.p_erase > 0) sim.erase_error(q, noise.p_erase, lane_mask);
}

void batch_on_gate2(sim::BatchFrameSim& sim, const sim::NoiseParams& noise,
                    uint32_t a, uint32_t b, const uint64_t* lane_mask) {
  if (noise.is_biased()) {
    sim.pauli_channel2(a, b, noise.eps_gate2, noise.frac_x(), noise.frac_y(),
                       lane_mask);
  } else {
    sim.depolarize2(a, b, noise.eps_gate2, lane_mask);
  }
  if (noise.p_erase > 0) {
    sim.erase_error(a, noise.p_erase, lane_mask);
    sim.erase_error(b, noise.p_erase, lane_mask);
  }
}

void batch_on_prep(sim::BatchFrameSim& sim, const sim::NoiseParams& noise,
                   uint32_t q, const uint64_t* lane_mask) {
  sim.x_error(q, noise.eps_prep, lane_mask);
  if (noise.p_erase > 0) sim.erase_error(q, noise.p_erase, lane_mask);
}

void batch_on_storage(sim::BatchFrameSim& sim, const sim::NoiseParams& noise,
                      uint32_t q, const uint64_t* lane_mask) {
  // Most drivers run with eps_store = 0, where the channel would draw
  // nothing anyway; skipping the call leaves every stream as it was.
  if (noise.eps_store == 0) return;
  batch_pauli1(sim, noise, q, noise.eps_store, lane_mask);
}

void batch_nontrivial_mask(const uint64_t* syndrome_rows, size_t num_rows,
                           const uint64_t* active, uint64_t* out,
                           size_t words) {
  sim::simd::or_rows_masked(syndrome_rows, num_rows, active, out, words);
}

void batch_agreement_mask(const uint64_t* syn1, const uint64_t* syn2,
                          size_t num_rows, const uint64_t* nontrivial,
                          uint64_t* out, size_t words) {
  std::copy_n(nontrivial, words, out);
  for (size_t r = 0; r < num_rows; ++r) {
    sim::simd::and_eq_into(out, syn1 + r * words, syn2 + r * words, words);
  }
}

void batch_decode_rows(const gf2::Hamming743& hamming,
                       const uint64_t* const rows[7], bool logical,
                       uint64_t* out, size_t words) {
  // Collapse the 3x7 check matrix into three 7-bit column masks once, then
  // run the bit-sliced decode register-wide. The logical/residual formulas
  // (corrected parity vs coset weight) live in the kernel; see simd.h.
  const gf2::BitMat& h = hamming.check_matrix();
  uint8_t syn_mask[3] = {0, 0, 0};
  for (size_t j = 0; j < 3; ++j) {
    for (size_t i = 0; i < 7; ++i) {
      if (h.row(j).get(i)) syn_mask[j] |= static_cast<uint8_t>(1u << i);
    }
  }
  sim::simd::hamming7_decode(rows, syn_mask, logical, out, words);
}

void batch_decode_positions(const uint64_t* syndrome_rows,
                            const uint64_t* act_mask, uint64_t* pos_masks,
                            size_t words) {
  const uint64_t* s0 = syndrome_rows;
  const uint64_t* s1 = syndrome_rows + words;
  const uint64_t* s2 = syndrome_rows + 2 * words;
  // Syndrome bits (s0,s1,s2) spell the 1-based position s0*4 + s1*2 + s2
  // (Eq. 3); position value-1 gets the correction. XORing each row with
  // all-ones where the position bit is 0 turns "match this 3-bit value"
  // into three ANDs.
  for (uint64_t value = 1; value <= 7; ++value) {
    uint64_t* out = pos_masks + (value - 1) * words;
    sim::simd::select3_and(out, act_mask, s0, (value & 4) ? 0 : ~uint64_t{0},
                           s1, (value & 2) ? 0 : ~uint64_t{0}, s2,
                           (value & 1) ? 0 : ~uint64_t{0}, words);
  }
}

void batch_add_fix(const pauli::PauliString& correction, const uint64_t* lanes,
                   uint64_t* fix_x, uint64_t* fix_z, size_t words) {
  for (size_t q = 0; q < correction.num_qubits(); ++q) {
    if (correction.x_bit(q)) {
      sim::simd::or_into(fix_x + q * words, lanes, words);
    }
    if (correction.z_bit(q)) {
      sim::simd::or_into(fix_z + q * words, lanes, words);
    }
  }
}

template <typename Lanes>
void apply_fix(Lanes& lanes, std::span<const uint32_t> data,
               const uint64_t* fix_x, const uint64_t* fix_z,
               const uint64_t* act) {
  FTQC_CHECK(fix_x != nullptr || fix_z != nullptr, "a fix needs a side");
  const size_t words = lanes.words();
  if (!lanes.any(act)) return;
  std::vector<uint64_t> fixed(words), resting(words);
  // The lanes that fix data[q], either side.
  const auto lanes_fixing = [&](size_t q) -> const uint64_t* {
    if (fix_z == nullptr) return fix_x + q * words;
    if (fix_x == nullptr) return fix_z + q * words;
    std::copy_n(fix_x + q * words, words, fixed.data());
    sim::simd::or_into(fixed.data(), fix_z + q * words, words);
    return fixed.data();
  };
  for (size_t q = 0; q < data.size(); ++q) {
    lanes.gate1(data[q], lanes_fixing(q));
    if (fix_x != nullptr) lanes.inject_x(data[q], fix_x + q * words);
    if (fix_z != nullptr) lanes.inject_z(data[q], fix_z + q * words);
  }
  for (size_t q = 0; q < data.size(); ++q) {
    sim::simd::andnot(resting.data(), act, lanes_fixing(q), words);
    lanes.storage(data[q], resting.data());
  }
}

template void apply_fix<BatchLanes>(BatchLanes&, std::span<const uint32_t>,
                                    const uint64_t*, const uint64_t*,
                                    const uint64_t*);
template void apply_fix<FrameLane>(FrameLane&, std::span<const uint32_t>,
                                   const uint64_t*, const uint64_t*,
                                   const uint64_t*);

void batch_logical_errors(const sim::BatchFrameSim& sim,
                          const codes::LookupDecoder& decoder,
                          std::span<const uint64_t> groups, uint64_t* out) {
  const codes::StabilizerCode& code = decoder.code();
  const size_t words = sim.num_words();
  // Lanes whose residual frame anticommutes with `p`.
  const auto anticommuting_lanes = [&](const pauli::PauliString& p,
                                       uint64_t* lanes) {
    std::fill_n(lanes, words, 0);
    for (uint32_t q = 0; q < code.n(); ++q) {
      if (p.x_bit(q)) sim::simd::xor_into(lanes, sim.z_flips(q), words);
      if (p.z_bit(q)) sim::simd::xor_into(lanes, sim.x_flips(q), words);
    }
  };
  // Logical-parity words: the lanes whose residual anticommutes with each
  // logical operator (an X flip of logical qubit i anticommutes with Z_i,
  // a Z flip with X_i).
  std::vector<const pauli::PauliString*> logicals;
  for (size_t i = 0; i < code.k(); ++i) {
    logicals.push_back(&code.logical_z(i));
    logicals.push_back(&code.logical_x(i));
  }
  std::vector<uint64_t> parity(logicals.size() * words);
  for (size_t l = 0; l < logicals.size(); ++l) {
    anticommuting_lanes(*logicals[l], &parity[l * words]);
  }
  // Each group's syndrome words, decoded once per distinct value: where the
  // decoded correction anticommutes with a logical operator, it flips the
  // parity of the lanes that read that value.
  std::vector<uint64_t> rows, nontrivial(words);
  for (const uint64_t group : groups) {
    const auto num_rows = static_cast<size_t>(__builtin_popcountll(group));
    rows.assign(num_rows * words, 0);
    size_t row = 0;
    for (uint64_t rest = group; rest != 0; rest &= rest - 1, ++row) {
      anticommuting_lanes(code.generators()[__builtin_ctzll(rest)],
                          &rows[row * words]);
    }
    batch_nontrivial_mask(rows.data(), num_rows, /*active=*/nullptr,
                          nontrivial.data(), words);
    for_each_syndrome_value(
        group, rows.data(), nontrivial.data(), words,
        [&](uint64_t value, const uint64_t* lanes) {
          const pauli::PauliString correction = decoder.decode(value);
          for (size_t l = 0; l < logicals.size(); ++l) {
            if (!correction.commutes_with(*logicals[l])) {
              sim::simd::xor_into(&parity[l * words], lanes, words);
            }
          }
        });
  }
  std::fill_n(out, words, 0);
  for (size_t l = 0; l < logicals.size(); ++l) {
    sim::simd::or_into(out, &parity[l * words], words);
  }
}

BatchGadgetRunner::BatchGadgetRunner(sim::BatchFrameSim& sim,
                                     const sim::NoiseParams& noise)
    : sim_(sim), noise_(noise), touched_(sim.num_qubits(), false) {
  noise_.validate();
}

const std::vector<size_t>& BatchGadgetRunner::run(
    const sim::Circuit& circuit, std::span<const uint32_t> active_qubits,
    const uint64_t* lane_mask) {
  using sim::Gate;
  FTQC_CHECK(circuit.num_qubits() <= sim_.num_qubits(),
             "circuit larger than frame register");
  for (uint32_t q : active_qubits) {
    FTQC_CHECK(q < sim_.num_qubits(), "active qubit outside frame register");
  }
  // Row indices from earlier gadgets are consumed before the next gadget
  // runs, so the record can be dropped here to keep memory flat.
  sim_.clear_record();
  rows_.clear();

  // Storage locations are free at eps_store = 0: no channel there would
  // draw anything, so nothing marks the qubits a layer touches and the
  // flush returns before walking the resting qubits.
  const bool storage_noise = noise_.eps_store != 0;
  if (storage_noise) std::fill(touched_.begin(), touched_.end(), false);
  const auto flush_storage = [&] {
    if (!storage_noise) return;
    for (uint32_t q : active_qubits) {
      if (!touched_[q]) batch_on_storage(sim_, noise_, q, lane_mask);
    }
    std::fill(touched_.begin(), touched_.end(), false);
  };

  for (const sim::Operation& op : circuit.ops()) {
    FTQC_CHECK(op.cond < 0, "gadget circuits cannot use feedforward");
    if (storage_noise) {
      for (uint32_t t : op.targets) touched_[t] = true;
    }
    switch (op.gate) {
      case Gate::TICK:
        flush_storage();
        break;
      case Gate::I:
        break;
      case Gate::X:
      case Gate::Y:
      case Gate::Z:
        // Deterministic Paulis shift the reference, not the frame, but the
        // physical gate is still a fault opportunity.
        batch_on_gate1(sim_, noise_, op.targets[0], lane_mask);
        break;
      case Gate::H:
        sim_.apply_h(op.targets[0]);
        batch_on_gate1(sim_, noise_, op.targets[0], lane_mask);
        break;
      case Gate::S:
      case Gate::S_DAG:
        sim_.apply_s(op.targets[0]);
        batch_on_gate1(sim_, noise_, op.targets[0], lane_mask);
        break;
      case Gate::CX:
        sim_.apply_cx(op.targets[0], op.targets[1]);
        batch_on_gate2(sim_, noise_, op.targets[0], op.targets[1], lane_mask);
        break;
      case Gate::CZ:
        sim_.apply_cz(op.targets[0], op.targets[1]);
        batch_on_gate2(sim_, noise_, op.targets[0], op.targets[1], lane_mask);
        break;
      case Gate::SWAP:
        sim_.apply_swap(op.targets[0], op.targets[1]);
        batch_on_gate2(sim_, noise_, op.targets[0], op.targets[1], lane_mask);
        break;
      case Gate::M:
        sim_.x_error(op.targets[0], noise_.eps_meas, lane_mask);
        rows_.push_back(sim_.measure_z(op.targets[0]));
        break;
      case Gate::MX:
        sim_.z_error(op.targets[0], noise_.eps_meas, lane_mask);
        rows_.push_back(sim_.measure_x(op.targets[0]));
        break;
      case Gate::MR:
        sim_.x_error(op.targets[0], noise_.eps_meas, lane_mask);
        rows_.push_back(sim_.measure_reset(op.targets[0]));
        batch_on_prep(sim_, noise_, op.targets[0], lane_mask);
        break;
      case Gate::R:
        sim_.reset(op.targets[0]);
        batch_on_prep(sim_, noise_, op.targets[0], lane_mask);
        break;
      case Gate::INJECT_X:
        sim_.inject_x(op.targets[0]);
        break;
      case Gate::INJECT_Y:
        sim_.inject_y(op.targets[0]);
        break;
      case Gate::INJECT_Z:
        sim_.inject_z(op.targets[0]);
        break;
      default:
        FTQC_CHECK(false, std::string("batch run_gadget cannot execute ") +
                              sim::gate_name(op.gate));
    }
  }
  return rows_;
}

BatchCatRetry::BatchCatRetry(sim::BatchFrameSim& sim) : sim_(sim) {}

uint64_t BatchCatRetry::run(BatchGadgetRunner& gadgets,
                            const sim::Circuit& prep,
                            std::span<const uint32_t> block,
                            std::span<const uint32_t> active_qubits,
                            int attempts, bool check, bool herald,
                            const uint64_t* active) {
  FTQC_CHECK(attempts >= 1, kRetryNeedsAnAttempt);
  const size_t words = sim_.num_words();
  need_.assign(words, ~uint64_t{0});
  if (active != nullptr) std::copy_n(active, words, need_.begin());
  passed_any_.assign(words, 0);
  failed_.assign(words, 0);
  parked_.assign(2 * block.size() * words, 0);
  uint64_t failures = 0;

  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (!batch_any_lane(need_.data(), words)) break;
    // The prep's leading R gates reset the block on EVERY lane, which is
    // exactly what makes whole-word replay safe: passed lanes are parked,
    // inactive lanes are scrubbed clean so the unitaries act trivially.
    const auto& rows = gadgets.run(prep, active_qubits, need_.data());
    if (!check && !herald) {
      // Nothing to judge: the first attempt always passes; frames are
      // already in place, so no parking round-trip is needed.
      need_.assign(words, 0);
      break;
    }
    // Reference check outcome is 0 (the cat bits agree); a flip means the
    // verification failed and the cat is discarded (§3.3). A heralded
    // erasure in the block is a failure the check bit cannot see — the
    // qubit is maximally mixed — so the herald joins the discard decision.
    if (check) {
      FTQC_CHECK(rows.size() == 1,
                 "a checked prep must measure exactly the check qubit");
      std::copy_n(sim_.record().row(rows[0]), words, failed_.begin());
    } else {
      std::fill_n(failed_.begin(), words, 0);
    }
    if (herald) {
      for (uint32_t q : block) {
        sim::simd::or_into(failed_.data(), sim_.herald_word(q), words);
      }
    }
    sim::simd::and_into(failed_.data(), need_.data(), words);
    failures += batch_count_lanes(failed_.data(), words, sim_.num_shots());
    // passed_now = need & ~failed, register-wide; scratch_ holds it until
    // the parking blends below are done.
    scratch_.resize(words);
    sim::simd::andnot(scratch_.data(), need_.data(), failed_.data(), words);
    std::copy_n(failed_.begin(), words, need_.begin());
    sim::simd::or_into(passed_any_.data(), scratch_.data(), words);
    if (batch_any_lane(scratch_.data(), words)) {
      // Park the just-passed lanes' block frames: later attempts will
      // clobber the sim's copies.
      for (size_t c = 0; c < block.size(); ++c) {
        sim::simd::blend_into(&parked_[2 * c * words], sim_.x_flips(block[c]),
                              scratch_.data(), words);
        sim::simd::blend_into(&parked_[(2 * c + 1) * words],
                              sim_.z_flips(block[c]), scratch_.data(), words);
      }
    }
  }
  if (batch_any_lane(need_.data(), words)) {
    // Retry budget exhausted: the serial path uses the last preparation;
    // these lanes keep their last-attempt frames AND are surfaced in the
    // abort mask so downstream consumers can postselect them out.
    sim_.discard_lanes(need_.data());
  }
  // Restore the parked frames: XOR-inject the difference between what the
  // last attempt left behind and what each passed lane actually prepared.
  scratch_.assign(words, 0);
  for (size_t c = 0; c < block.size(); ++c) {
    sim::simd::xor_and(scratch_.data(), sim_.x_flips(block[c]),
                       &parked_[2 * c * words], passed_any_.data(), words);
    sim_.inject_x_masked(block[c], scratch_.data());
    sim::simd::xor_and(scratch_.data(), sim_.z_flips(block[c]),
                       &parked_[(2 * c + 1) * words], passed_any_.data(),
                       words);
    sim_.inject_z_masked(block[c], scratch_.data());
  }
  return failures;
}

BatchSteaneRecovery::BatchSteaneRecovery(const sim::NoiseParams& noise,
                                         RecoveryPolicy policy, size_t shots,
                                         uint64_t seed)
    : sim_(kNumQubits, shots, seed),
      noise_(noise),
      policy_(policy),
      words_(sim_.num_words()) {
  if (noise.p_leak > 0) {
    throw UnsupportedChannel("BatchSteaneRecovery", "p_leak > 0",
                             "SteaneRecovery");
  }
}

void BatchSteaneRecovery::reset() { sim_.clear(); }

void BatchSteaneRecovery::inject_data(uint32_t q, char pauli) {
  FTQC_CHECK(q < 7, "data qubit index out of range");
  inject_pauli(sim_, q, pauli);
}

void BatchSteaneRecovery::apply_memory_noise(double p) {
  for (uint32_t q : steane_layout::kData) sim_.depolarize1(q, p);
}

void BatchSteaneRecovery::run_cycle() {
  BatchLanes lanes(sim_, noise_);
  steane_cycle(lanes, policy_, steane_register_cycle(), /*active=*/nullptr);
}

uint64_t BatchSteaneRecovery::count_frames(bool logical,
                                           size_t num_lanes) const {
  const uint64_t* x_rows[7];
  const uint64_t* z_rows[7];
  for (size_t i = 0; i < 7; ++i) {
    x_rows[i] = sim_.x_flips(steane_layout::kData[i]);
    z_rows[i] = sim_.z_flips(steane_layout::kData[i]);
  }
  std::vector<uint64_t> lx(words_), lz(words_);
  const gf2::Hamming743& hamming = gf2::hamming743();
  batch_decode_rows(hamming, x_rows, logical, lx.data(), words_);
  batch_decode_rows(hamming, z_rows, logical, lz.data(), words_);
  sim::simd::or_into(lx.data(), lz.data(), words_);
  return batch_count_lanes(lx.data(), words_,
                           std::min(num_lanes, sim_.num_shots()));
}

uint64_t BatchSteaneRecovery::count_any_logical_error(size_t num_lanes) const {
  return count_frames(/*logical=*/true, num_lanes);
}

uint64_t BatchSteaneRecovery::count_residual(size_t num_lanes) const {
  return count_frames(/*logical=*/false, num_lanes);
}

bool BatchSteaneRecovery::logical_x_error(size_t shot) const {
  gf2::BitVec word(7);
  for (size_t q = 0; q < 7; ++q) {
    word.set(q, sim_.x_flip(steane_layout::kData[q], shot));
  }
  return gf2::hamming743().decode_logical(word);
}

bool BatchSteaneRecovery::logical_z_error(size_t shot) const {
  gf2::BitVec word(7);
  for (size_t q = 0; q < 7; ++q) {
    word.set(q, sim_.z_flip(steane_layout::kData[q], shot));
  }
  return gf2::hamming743().decode_logical(word);
}

}  // namespace ftqc::ft
