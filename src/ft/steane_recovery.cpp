#include "ft/steane_recovery.h"

#include <algorithm>
#include <array>
#include <vector>

#include "common/check.h"
#include "ft/batch_recovery.h"
#include "ft/lanes.h"
#include "ft/steane_circuits.h"
#include "ft/steane_layout.h"
#include "gf2/hamming.h"
#include "sim/simd.h"

namespace ftqc::ft {

namespace {
using steane_layout::kAncA;
using steane_layout::kAncB;
using steane_layout::kData;

// The Fig. 9 cycle on one layout. Holds the active-qubit sets (data+anc_a
// during syndrome-ancilla work, all 21 during verification) for storage
// accounting.
template <typename Lanes>
class SteaneCycle {
 public:
  SteaneCycle(Lanes& lanes, const RecoveryPolicy& policy,
              const SteaneCycleCircuits& circuits)
      : lanes_(lanes),
        policy_(policy),
        layout_(circuits.layout),
        circuits_(circuits),
        words_(lanes.words()) {
    for (size_t i = 0; i < 7; ++i) {
      data_and_a_[i] = layout_.data[i];
      data_and_a_[7 + i] = layout_.anc_a[i];
      all_[i] = layout_.data[i];
      all_[7 + i] = layout_.anc_a[i];
      all_[14 + i] = layout_.anc_b[i];
    }
  }

  void run(const uint64_t* active) {
    for (const bool phase_type : {false, true}) {
      run_repeat_policy(
          lanes_, 3, policy_.repeat_nontrivial_syndrome, active,
          [&](const uint64_t* mask, uint64_t* out) {
            extract_syndrome(phase_type, mask, out);
          },
          [&](const uint64_t* syn, const uint64_t* act) {
            correct(phase_type, syn, act);
          });
    }
  }

 private:
  void prepare_verified_zero_ancilla(const uint64_t* lane_mask) {
    // Fresh |0>_code on the syndrome ancilla. Herald-triggered reinit: an
    // erased ancilla qubit is known to be maximally mixed, so a lane whose
    // block carries a herald discards it and replays zero_prep_a (whose R
    // resets clear both the frames and the heralds) until the block is
    // clean or the retry budget runs out. An exhausted budget keeps the
    // last (still-heralded) block and lets verification judge it.
    if (policy_.herald_reinit && lanes_.may_herald()) {
      lanes_.retry(circuits_.zero_prep_a, layout_.anc_a, data_and_a_,
                   1 + policy_.max_herald_retries, /*check=*/false,
                   /*herald=*/true, lane_mask);
    } else {
      lanes_.run(circuits_.zero_prep_a, data_and_a_, lane_mask);
    }
    if (!policy_.verify_ancilla || policy_.verification_rounds <= 0) return;

    // §3.3: compare against freshly encoded blocks; a lane is fixed only
    // when EVERY round votes "logically flipped", and a conflicted pair is
    // left alone.
    std::vector<uint64_t> buffer(2 * words_, ~uint64_t{0});
    uint64_t* votes = buffer.data();
    uint64_t* vote = votes + words_;
    for (int round = 0; round < policy_.verification_rounds; ++round) {
      lanes_.run(circuits_.zero_prep_b, all_, lane_mask);
      lanes_.run(circuits_.cx_ab, all_, lane_mask);
      const auto flips = lanes_.run(circuits_.measure_b, all_, lane_mask);
      FTQC_CHECK(flips.size() == 7 * words_,
                 "destructive measure must read 7 qubits");
      const uint64_t* flip_rows[7];
      for (size_t i = 0; i < 7; ++i) flip_rows[i] = &flips[i * words_];
      batch_decode_rows(gf2::hamming743(), flip_rows, /*logical=*/true, vote,
                        words_);
      sim::simd::and_into(votes, vote, words_);
      for (uint32_t q : layout_.anc_b) lanes_.reset(q);
    }
    if (lane_mask != nullptr) {
      sim::simd::and_into(votes, lane_mask, words_);
    }
    if (!lanes_.any(votes)) return;

    // Confident the ancilla is (logically) flipped: a one-layer circuit of
    // three NOTs on the logical-X support (§4.1 footnote f) — gate noise on
    // the three targets, storage on the rest of data+anc_a — which shifts
    // the reference, so the frame takes the flip too.
    for (size_t i = 0; i < 3; ++i) lanes_.gate1(layout_.anc_a[i], votes);
    for (uint32_t q : layout_.data) lanes_.storage(q, votes);
    for (size_t i = 3; i < 7; ++i) {
      lanes_.storage(layout_.anc_a[i], votes);
    }
    for (size_t i = 0; i < 3; ++i) {
      lanes_.inject_x(layout_.anc_a[i], votes);
    }
  }

  // Writes 3 syndrome rows (3 * words words) into `syndrome_rows`.
  void extract_syndrome(bool phase_type, const uint64_t* lane_mask,
                        uint64_t* syndrome_rows) {
    prepare_verified_zero_ancilla(lane_mask);
    const auto flips =
        lanes_.run(circuits_.syndrome[phase_type], data_and_a_, lane_mask);
    FTQC_CHECK(flips.size() == 7 * words_,
               "syndrome extraction must read 7 qubits");
    const gf2::BitMat& h = gf2::hamming743().check_matrix();
    for (size_t j = 0; j < 3; ++j) {
      uint64_t* out = syndrome_rows + j * words_;
      std::fill_n(out, words_, 0);
      for (size_t i = 0; i < 7; ++i) {
        if (!h.row(j).get(i)) continue;
        sim::simd::xor_into(out, &flips[i * words_], words_);
      }
    }
    for (uint32_t q : layout_.anc_a) lanes_.reset(q);
  }

  // The one-Pauli Hamming correction: the lanes of `act` whose 3-row
  // syndrome points at a position take an X (phase_type false) or a Z
  // there, through apply_fix.
  void correct(bool phase_type, const uint64_t* syndrome_rows,
               const uint64_t* act) {
    if (!lanes_.any(act)) return;
    std::vector<uint64_t> pos_masks(7 * words_);
    batch_decode_positions(syndrome_rows, act, pos_masks.data(), words_);
    apply_fix(lanes_, layout_.data, phase_type ? nullptr : pos_masks.data(),
              phase_type ? pos_masks.data() : nullptr, act);
  }

  Lanes& lanes_;
  const RecoveryPolicy& policy_;
  const SteaneCycleLayout& layout_;
  const SteaneCycleCircuits& circuits_;
  size_t words_;
  std::array<uint32_t, 14> data_and_a_{};
  std::array<uint32_t, 21> all_{};
};

}  // namespace

SteaneCycleCircuits compile_steane_cycle(const SteaneCycleLayout& layout) {
  SteaneCycleCircuits c;
  c.layout = layout;
  c.zero_prep_a = steane_zero_prep(layout.anc_a);
  c.zero_prep_b = steane_zero_prep(layout.anc_b);
  c.cx_ab = transversal_cx(layout.anc_a, layout.anc_b);
  c.measure_b = destructive_measure(layout.anc_b);
  for (const bool phase_type : {false, true}) {
    c.syndrome[phase_type] =
        steane_syndrome_gadget(phase_type, layout.data, layout.anc_a);
  }
  return c;
}

const SteaneCycleCircuits& steane_register_cycle() {
  static const SteaneCycleCircuits kCircuits =
      compile_steane_cycle(SteaneCycleLayout{kData, kAncA, kAncB});
  return kCircuits;
}

template <typename Lanes>
void steane_cycle(Lanes& lanes, const RecoveryPolicy& policy,
                  const SteaneCycleCircuits& circuits,
                  const uint64_t* active) {
  SteaneCycle<Lanes>(lanes, policy, circuits).run(active);
}

template void steane_cycle<BatchLanes>(BatchLanes&, const RecoveryPolicy&,
                                       const SteaneCycleCircuits&,
                                       const uint64_t*);
template void steane_cycle<FrameLane>(FrameLane&, const RecoveryPolicy&,
                                      const SteaneCycleCircuits&,
                                      const uint64_t*);

SteaneRecovery::SteaneRecovery(const sim::NoiseParams& noise,
                               RecoveryPolicy policy, uint64_t seed)
    : frame_(kNumQubits, seed),
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
  FrameLane lane(frame_, *injector_);
  steane_cycle(lane, policy_, steane_register_cycle(), /*active=*/nullptr);
}

bool SteaneRecovery::logical_x_error() const {
  gf2::BitVec word(7);
  for (size_t q = 0; q < 7; ++q) word.set(q, frame_.x_frame().get(q));
  return gf2::hamming743().decode_logical(word);
}

bool SteaneRecovery::logical_z_error() const {
  gf2::BitVec word(7);
  for (size_t q = 0; q < 7; ++q) word.set(q, frame_.z_frame().get(q));
  return gf2::hamming743().decode_logical(word);
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
size_t coset_weight(const gf2::BitVec& word) {
  size_t best = 8;
  for (uint8_t stab : gf2::hamming743().even_codewords()) {
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
  return coset_weight(word);
}

size_t SteaneRecovery::residual_z_coset_weight() const {
  gf2::BitVec word(7);
  for (size_t q = 0; q < 7; ++q) word.set(q, frame_.z_frame().get(q));
  return coset_weight(word);
}

}  // namespace ftqc::ft
