#include "ft/steane_recovery.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "ft/gadget_runner.h"
#include "ft/steane_circuits.h"
#include "ft/steane_layout.h"

namespace ftqc::ft {

namespace {
using steane_layout::kAncA;
using steane_layout::kAncB;
using steane_layout::kData;

// The cycle of Fig. 9 on an arbitrary layout. Holds the active-qubit sets
// (data+anc_a during syndrome-ancilla work, all 21 during verification) so
// storage-noise accounting matches the original fixed-register driver
// location for location.
class SteaneCycleRunner {
 public:
  SteaneCycleRunner(sim::FrameSim& frame, NoiseInjector& injector,
                    const RecoveryPolicy& policy,
                    const gf2::Hamming743& hamming,
                    const SteaneCycleLayout& layout,
                    const SteaneCycleCircuits& circuits)
      : frame_(frame),
        injector_(injector),
        policy_(policy),
        hamming_(hamming),
        layout_(layout),
        circuits_(circuits) {
    for (size_t i = 0; i < 7; ++i) {
      data_and_a_[i] = layout.data[i];
      data_and_a_[7 + i] = layout.anc_a[i];
      all_[i] = layout.data[i];
      all_[7 + i] = layout.anc_a[i];
      all_[14 + i] = layout.anc_b[i];
    }
  }

  void run_cycle() {
    for (const bool phase_type : {false, true}) {
      const gf2::BitVec syndrome = extract_syndrome(phase_type);
      if (!syndrome.any()) continue;  // trivial: take no action (§3.4)
      if (policy_.repeat_nontrivial_syndrome) {
        const gf2::BitVec again = extract_syndrome(phase_type);
        // Act only when the repeat agrees; a conflict defers to the next
        // cycle.
        if (again == syndrome) correct(phase_type, syndrome);
      } else {
        correct(phase_type, syndrome);
      }
    }
  }

 private:
  [[nodiscard]] bool syndrome_ancilla_heralded() const {
    for (uint32_t q : layout_.anc_a) {
      if (frame_.is_erased(q)) return true;
    }
    return false;
  }

  void prepare_verified_zero_ancilla() {
    // Fresh |0>_code on the syndrome ancilla.
    run_gadget(frame_, circuits_.zero_prep_a, injector_, data_and_a_);
    if (policy_.herald_reinit) {
      // Herald-triggered reinit: an erased ancilla qubit is known to be
      // maximally mixed, so the block is discarded and re-prepared rather
      // than verified. zero_prep_a opens with R resets, which clear both
      // the frames and the heralds of the discarded block — each replay is
      // a genuine fresh preparation. An exhausted budget keeps the last
      // (still-heralded) block and lets verification judge it.
      for (int retry = 0;
           retry < policy_.max_herald_retries && syndrome_ancilla_heralded();
           ++retry) {
        run_gadget(frame_, circuits_.zero_prep_a, injector_, data_and_a_);
      }
    }
    if (!policy_.verify_ancilla) return;

    // §3.3: compare against freshly encoded blocks; equal nontrivial
    // readings trigger a logical flip of the ancilla, a conflicted pair is
    // left alone.
    int votes_one = 0;
    int rounds = 0;
    for (int round = 0; round < policy_.verification_rounds; ++round) {
      run_gadget(frame_, circuits_.zero_prep_b, injector_, all_);
      run_gadget(frame_, circuits_.cx_ab, injector_, all_);
      const auto flips =
          run_gadget(frame_, circuits_.measure_b, injector_, all_);
      gf2::BitVec word(7);
      for (size_t q = 0; q < 7; ++q) word.set(q, flips[q] != 0);
      votes_one += hamming_.decode_logical(word) ? 1 : 0;
      ++rounds;
      for (uint32_t q : layout_.anc_b) frame_.reset(q);
    }
    if (votes_one == rounds && rounds > 0) {
      // Confident the ancilla is (logically) flipped: apply the bitwise fix.
      // Three NOTs on the logical-X support suffice (§4.1 footnote f).
      run_gadget(frame_, circuits_.ancilla_flip_fix, injector_, data_and_a_);
      frame_.inject_x(layout_.anc_a[0]);
      frame_.inject_x(layout_.anc_a[1]);
      frame_.inject_x(layout_.anc_a[2]);
    }
  }

  gf2::BitVec extract_syndrome(bool phase_type) {
    prepare_verified_zero_ancilla();
    const auto flips = run_gadget(frame_, circuits_.syndrome[phase_type],
                                  injector_, data_and_a_);
    for (uint32_t q : layout_.anc_a) frame_.reset(q);
    return hamming_syndrome_of_flips(hamming_, flips.data());
  }

  void correct(bool phase_type, const gf2::BitVec& syndrome) {
    const size_t pos = hamming_.error_position(syndrome);
    if (pos >= 7) return;
    // The correction is a real gate: it costs one fault opportunity, and it
    // shifts the reference (the noiseless run never applies corrections).
    run_gadget(frame_, circuits_.correction[phase_type][pos], injector_,
               layout_.data);
    if (phase_type) {
      frame_.inject_z(layout_.data[pos]);
    } else {
      frame_.inject_x(layout_.data[pos]);
    }
  }

  sim::FrameSim& frame_;
  NoiseInjector& injector_;
  const RecoveryPolicy& policy_;
  const gf2::Hamming743& hamming_;
  const SteaneCycleLayout& layout_;
  const SteaneCycleCircuits& circuits_;
  std::array<uint32_t, 14> data_and_a_{};
  std::array<uint32_t, 21> all_{};
};

}  // namespace

SteaneCycleCircuits compile_steane_cycle(const SteaneCycleLayout& layout) {
  SteaneCycleCircuits c;
  c.zero_prep_a = steane_zero_prep(layout.anc_a);
  c.zero_prep_b = steane_zero_prep(layout.anc_b);
  c.cx_ab = transversal_cx(layout.anc_a, layout.anc_b);
  c.measure_b = destructive_measure(layout.anc_b);
  for (uint32_t q : {layout.anc_a[0], layout.anc_a[1], layout.anc_a[2]}) {
    c.ancilla_flip_fix.x(q);
  }
  c.ancilla_flip_fix.tick();
  for (const bool phase_type : {false, true}) {
    c.syndrome[phase_type] =
        steane_syndrome_gadget(phase_type, layout.data, layout.anc_a);
    for (size_t pos = 0; pos < 7; ++pos) {
      sim::Circuit& fix = c.correction[phase_type][pos];
      if (phase_type) {
        fix.z(layout.data[pos]);
      } else {
        fix.x(layout.data[pos]);
      }
      fix.tick();
    }
  }
  return c;
}

void run_steane_cycle(sim::FrameSim& frame, NoiseInjector& injector,
                      const RecoveryPolicy& policy,
                      const gf2::Hamming743& hamming,
                      const SteaneCycleLayout& layout,
                      const SteaneCycleCircuits& circuits) {
  SteaneCycleRunner(frame, injector, policy, hamming, layout, circuits)
      .run_cycle();
}

void run_steane_cycle(sim::FrameSim& frame, NoiseInjector& injector,
                      const RecoveryPolicy& policy,
                      const gf2::Hamming743& hamming,
                      const SteaneCycleLayout& layout) {
  run_steane_cycle(frame, injector, policy, hamming, layout,
                   compile_steane_cycle(layout));
}

SteaneRecovery::SteaneRecovery(const sim::NoiseParams& noise,
                               RecoveryPolicy policy, uint64_t seed)
    : frame_(kNumQubits, seed),
      noise_(noise),
      policy_(policy),
      stochastic_(noise),
      injector_(&stochastic_) {}

void SteaneRecovery::reset() { frame_.clear(); }

void SteaneRecovery::set_injector(NoiseInjector* injector) {
  injector_ = injector != nullptr ? injector : &stochastic_;
}

void SteaneRecovery::inject_data(uint32_t q, char pauli) {
  FTQC_CHECK(q < 7, "data qubit index out of range");
  inject_pauli(frame_, q, pauli);
}

void SteaneRecovery::apply_memory_noise(double p) {
  for (uint32_t q : kData) frame_.depolarize1(q, p);
}

void SteaneRecovery::run_cycle() {
  static const SteaneCycleLayout kLayout{kData, kAncA, kAncB};
  static const SteaneCycleCircuits kCircuits = compile_steane_cycle(kLayout);
  run_steane_cycle(frame_, *injector_, policy_, hamming_, kLayout, kCircuits);
}

bool SteaneRecovery::logical_x_error() const {
  gf2::BitVec word(7);
  for (size_t q = 0; q < 7; ++q) word.set(q, frame_.x_frame().get(q));
  return hamming_.decode_logical(word);
}

bool SteaneRecovery::logical_z_error() const {
  gf2::BitVec word(7);
  for (size_t q = 0; q < 7; ++q) word.set(q, frame_.z_frame().get(q));
  return hamming_.decode_logical(word);
}

size_t SteaneRecovery::residual_x_weight() const {
  size_t w = 0;
  for (size_t q = 0; q < 7; ++q) w += frame_.x_frame().get(q);
  return w;
}

size_t SteaneRecovery::residual_z_weight() const {
  size_t w = 0;
  for (size_t q = 0; q < 7; ++q) w += frame_.z_frame().get(q);
  return w;
}

namespace {
// Minimum weight of `word` xored with any even Hamming codeword (the
// stabilizer supports of the self-dual Steane code).
size_t coset_weight(const gf2::Hamming743& hamming, const gf2::BitVec& word) {
  size_t best = 8;
  for (uint8_t stab : hamming.even_codewords()) {
    size_t w = 0;
    for (size_t q = 0; q < 7; ++q) w += word.get(q) ^ ((stab >> q) & 1u);
    best = std::min(best, w);
  }
  return best;
}
}  // namespace

size_t SteaneRecovery::residual_x_coset_weight() const {
  gf2::BitVec word(7);
  for (size_t q = 0; q < 7; ++q) word.set(q, frame_.x_frame().get(q));
  return coset_weight(hamming_, word);
}

size_t SteaneRecovery::residual_z_coset_weight() const {
  gf2::BitVec word(7);
  for (size_t q = 0; q < 7; ++q) word.set(q, frame_.z_frame().get(q));
  return coset_weight(hamming_, word);
}

}  // namespace ftqc::ft
