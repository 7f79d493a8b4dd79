#include "ft/batch_level2.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "common/errors.h"
#include "ft/concatenated_recovery.h"
#include "ft/steane_recovery.h"
#include "sim/simd.h"

namespace ftqc::ft {

namespace {

constexpr uint32_t kData = 0;
constexpr uint32_t kAncA = 49;
constexpr uint32_t kAncB = 98;

}  // namespace

BatchLevel2Recovery::BatchLevel2Recovery(const sim::NoiseParams& noise,
                                         RecoveryPolicy policy, size_t shots,
                                         uint64_t seed)
    : sim_(kNumQubits, shots, seed),
      gadgets_(sim_, noise),
      noise_(noise),
      policy_(policy),
      words_(sim_.num_words()) {
  if (noise.p_leak > 0) {
    throw UnsupportedChannel("BatchLevel2Recovery", "p_leak > 0",
                             "Level2Recovery");
  }
  for (uint32_t q = 0; q < kAncB; ++q) data_and_a_.push_back(q);
  // The scratch ancillas [147,161) are alive only inside the nested level-1
  // cycles, which do their own storage accounting; the level-2 active set
  // stays the three 49-qubit blocks (as in the serial driver).
  for (uint32_t q = 0; q < kAncB + kBlock; ++q) all_.push_back(q);
}

void BatchLevel2Recovery::reset() { sim_.clear(); }

void BatchLevel2Recovery::inject_data(uint32_t q, char pauli) {
  FTQC_CHECK(q < kBlock, "data qubit index out of range");
  inject_pauli(sim_, q, pauli);
}

void BatchLevel2Recovery::apply_memory_noise(double p) {
  for (uint32_t q = 0; q < kBlock; ++q) sim_.depolarize1(q, p);
}

void BatchLevel2Recovery::hierarchical_decode(const uint64_t* const rows[49],
                                              uint64_t* logicals,
                                              uint64_t* out) const {
  for (size_t sub = 0; sub < 7; ++sub) {
    const uint64_t* sub_rows[7];
    for (size_t i = 0; i < 7; ++i) sub_rows[i] = rows[7 * sub + i];
    batch_decode_rows(hamming_, sub_rows, /*logical=*/true,
                      logicals + sub * words_, words_);
  }
  const uint64_t* logical_rows[7];
  for (size_t sub = 0; sub < 7; ++sub) logical_rows[sub] = logicals + sub * words_;
  batch_decode_rows(hamming_, logical_rows, /*logical=*/true, out, words_);
}

void BatchLevel2Recovery::run_subblock_recoveries(uint32_t base,
                                                  const uint64_t* lane_mask) {
  FTQC_CHECK(base == kData || base == kAncA,
             "subblock recoveries run on the data block or ancilla A");
  for (const Level2Circuits::SubblockCycle& cy :
       level2_circuits().subblock_cycles[base == kData ? 0 : 1]) {
    run_batch_steane_cycle(sim_, noise_, policy_, hamming_, cy.layout,
                           cy.circuits, lane_mask);
  }
}

void BatchLevel2Recovery::prepare_verified_zero_ancilla(
    const uint64_t* lane_mask) {
  const Level2Circuits& circuits = level2_circuits();
  gadgets_.run(circuits.prep_a, data_and_a_, lane_mask);
  if (policy_.level2_discipline == Level2Discipline::kExRec) {
    // Extended rectangle: scrub every ancilla subblock with a nested
    // level-1 recovery before the §3.3 verification; the current lane mask
    // threads through so only the lanes executing this preparation collect
    // the interleave's faults and corrections.
    run_subblock_recoveries(kAncA, lane_mask);
  }
  if (!policy_.verify_ancilla || policy_.verification_rounds <= 0) return;

  // A lane is fixed only when EVERY round votes "logically flipped" (the
  // serial votes_one == rounds).
  std::vector<uint64_t> votes(words_, ~uint64_t{0});
  std::vector<uint64_t> logicals(7 * words_), vote(words_);
  for (int round = 0; round < policy_.verification_rounds; ++round) {
    gadgets_.run(circuits.prep_b, all_, lane_mask);
    const auto rows = gadgets_.run(circuits.verify, all_, lane_mask);
    FTQC_CHECK(rows.size() == kBlock, "verification must read 49 qubits");
    const uint64_t* flip_rows[49];
    for (size_t i = 0; i < kBlock; ++i) {
      flip_rows[i] = sim_.record().row(rows[i]);
    }
    hierarchical_decode(flip_rows, logicals.data(), vote.data());
    sim::simd::and_into(votes.data(), vote.data(), words_);
    for (uint32_t i = 0; i < kBlock; ++i) sim_.reset(kAncB + i);
  }
  if (lane_mask != nullptr) {
    sim::simd::and_into(votes.data(), lane_mask, words_);
  }
  if (!batch_any_lane(votes.data(), words_)) return;

  // Logical flip of the level-2 ancilla: logical X on subblocks {0,1,2},
  // each a 3-qubit bitwise NOT on the subblock's logical-X support. The
  // serial path runs a 9-NOT circuit through run_gadget (gate noise on the
  // nine targets, storage on the rest of data+ancilla A) then flips the
  // frame; replay that masked per lane.
  std::array<bool, kAncB> is_target{};
  std::vector<uint32_t> targets;
  for (size_t sub : {size_t{0}, size_t{1}, size_t{2}}) {
    const auto q = level2_subblock(kAncA, sub);
    for (size_t i : {size_t{0}, size_t{1}, size_t{2}}) {
      targets.push_back(q[i]);
      is_target[q[i]] = true;
    }
  }
  for (uint32_t q : targets) {
    batch_on_gate1(sim_, noise_, q, votes.data());
  }
  for (uint32_t q : data_and_a_) {
    if (!is_target[q]) batch_on_storage(sim_, noise_, q, votes.data());
  }
  for (uint32_t q : targets) sim_.inject_x_masked(q, votes.data());
}

void BatchLevel2Recovery::extract_syndrome(bool phase_type,
                                           const uint64_t* lane_mask,
                                           uint64_t* rows24) {
  prepare_verified_zero_ancilla(lane_mask);

  const auto rows = gadgets_.run(level2_circuits().extract[phase_type],
                                 data_and_a_, lane_mask);
  FTQC_CHECK(rows.size() == kBlock, "extraction must read 49 qubits");
  for (uint32_t i = 0; i < kBlock; ++i) sim_.reset(kAncA + i);

  // One measurement, both levels (§5): per-subblock Hamming syndrome rows
  // plus the level-2 syndrome rows over the bit-sliced subblock logical
  // values. Copied out of the record immediately: nested gadget replays
  // (the exRec data recoveries, the §3.4 repeat) drop the record.
  const gf2::BitMat& h = hamming_.check_matrix();
  std::vector<uint64_t> logicals(7 * words_);
  for (size_t sub = 0; sub < 7; ++sub) {
    const uint64_t* sub_rows[7];
    for (size_t i = 0; i < 7; ++i) {
      sub_rows[i] = sim_.record().row(rows[7 * sub + i]);
    }
    for (size_t j = 0; j < 3; ++j) {
      uint64_t* out = rows24 + (3 * sub + j) * words_;
      std::fill_n(out, words_, 0);
      for (size_t i = 0; i < 7; ++i) {
        if (!h.row(j).get(i)) continue;
        sim::simd::xor_into(out, sub_rows[i], words_);
      }
    }
    batch_decode_rows(hamming_, sub_rows, /*logical=*/true,
                      logicals.data() + sub * words_, words_);
  }
  for (size_t j = 0; j < 3; ++j) {
    uint64_t* out = rows24 + (21 + j) * words_;
    std::fill_n(out, words_, 0);
    for (size_t sub = 0; sub < 7; ++sub) {
      if (!h.row(j).get(sub)) continue;
      sim::simd::xor_into(out, logicals.data() + sub * words_, words_);
    }
  }
}

void BatchLevel2Recovery::correct(bool phase_type, const uint64_t* rows24,
                                  const uint64_t* act_mask) {
  if (!batch_any_lane(act_mask, words_)) return;
  // With interleaved data recoveries the per-subblock physical errors were
  // already scrubbed between extraction and this point; re-applying the
  // extraction's level-1 corrections would re-inject them, so only the
  // top-level logical fix remains ours to apply.
  const bool delegate_sub_corrections =
      policy_.level2_discipline == Level2Discipline::kExRec &&
      policy_.exrec_data_recoveries;

  // Per-qubit target masks: l1 = level-1 physical fixes, l2 = the level-2
  // logical fix (subblocks' logical-X/Z support {0,1,2}). A lane can hit
  // the same qubit through both — the serial circuit then carries two gates
  // (two fault opportunities) whose injections cancel, so gate noise is
  // applied per component and the injection uses the XOR.
  std::vector<uint64_t> l1(kBlock * words_, 0), l2(kBlock * words_, 0);
  std::vector<uint64_t> pos(7 * words_);
  if (!delegate_sub_corrections) {
    for (size_t sub = 0; sub < 7; ++sub) {
      batch_decode_positions(rows24 + 3 * sub * words_, act_mask, pos.data(),
                             words_);
      std::copy_n(pos.data(), 7 * words_, l1.data() + 7 * sub * words_);
    }
  }
  batch_decode_positions(rows24 + 21 * words_, act_mask, pos.data(), words_);
  for (size_t bad = 0; bad < 7; ++bad) {
    for (size_t i = 0; i < 3; ++i) {
      std::copy_n(pos.data() + bad * words_, words_,
                  l2.data() + (7 * bad + i) * words_);
    }
  }

  // Lanes with at least one target; lanes of act_mask whose syndrome
  // decoded to "no error" run no fix circuit at all (serial early return).
  std::vector<uint64_t> has(words_, 0);
  for (size_t q = 0; q < kBlock; ++q) {
    sim::simd::or_into(has.data(), l1.data() + q * words_, words_);
    sim::simd::or_into(has.data(), l2.data() + q * words_, words_);
  }
  if (!batch_any_lane(has.data(), words_)) return;

  for (size_t q = 0; q < kBlock; ++q) {
    const uint64_t* a = l1.data() + q * words_;
    if (batch_any_lane(a, words_)) batch_on_gate1(sim_, noise_, q, a);
  }
  for (size_t q = 0; q < kBlock; ++q) {
    const uint64_t* b = l2.data() + q * words_;
    if (batch_any_lane(b, words_)) batch_on_gate1(sim_, noise_, q, b);
  }
  std::vector<uint64_t> mask(words_);
  for (size_t q = 0; q < kBlock; ++q) {
    const uint64_t* a = l1.data() + q * words_;
    const uint64_t* b = l2.data() + q * words_;
    // has & ~a & ~b, two register-wide passes.
    sim::simd::andnot(mask.data(), has.data(), a, words_);
    sim::simd::andnot(mask.data(), mask.data(), b, words_);
    batch_on_storage(sim_, noise_, q, mask.data());
  }
  for (size_t q = 0; q < kBlock; ++q) {
    const uint64_t* a = l1.data() + q * words_;
    const uint64_t* b = l2.data() + q * words_;
    std::copy_n(a, words_, mask.data());
    sim::simd::xor_into(mask.data(), b, words_);
    if (!batch_any_lane(mask.data(), words_)) continue;
    if (phase_type) {
      sim_.inject_z_masked(q, mask.data());
    } else {
      sim_.inject_x_masked(q, mask.data());
    }
  }
}

void BatchLevel2Recovery::run_cycle() {
  for (const bool phase_type : {false, true}) {
    run_batch_repeat_policy(
        kSyndromeRows, words_, policy_.repeat_nontrivial_syndrome,
        /*active=*/nullptr,
        [&](const uint64_t* mask, uint64_t* out) {
          extract_syndrome(phase_type, mask, out);
        },
        [&](const uint64_t* syn, const uint64_t* act) {
          if (policy_.level2_discipline == Level2Discipline::kExRec &&
              policy_.exrec_data_recoveries && batch_any_lane(act, words_)) {
            // Trailing leg of the extended rectangle: level-1 recoveries on
            // the data subblocks between extraction and correction, only on
            // the lanes that are about to correct (the serial branch).
            run_subblock_recoveries(kData, act);
          }
          correct(phase_type, syn, act);
        });
  }
}

void BatchLevel2Recovery::residual_logical(bool phase_type,
                                           uint64_t* out) const {
  const uint64_t* rows[49];
  for (uint32_t q = 0; q < kBlock; ++q) {
    rows[q] = phase_type ? sim_.z_flips(q) : sim_.x_flips(q);
  }
  std::vector<uint64_t> logicals(7 * words_);
  hierarchical_decode(rows, logicals.data(), out);
}

uint64_t BatchLevel2Recovery::count_any_logical_error(size_t num_lanes) const {
  std::vector<uint64_t> lx(words_), lz(words_);
  residual_logical(/*phase_type=*/false, lx.data());
  residual_logical(/*phase_type=*/true, lz.data());
  sim::simd::or_into(lx.data(), lz.data(), words_);
  return batch_count_lanes(lx.data(), words_,
                           std::min(num_lanes, sim_.num_shots()));
}

bool BatchLevel2Recovery::lane_logical(bool phase_type, size_t shot) const {
  // One lane only: the whole-register bit-sliced decode would make a
  // loop-over-shots caller quadratic.
  gf2::BitVec logicals(7);
  for (size_t sub = 0; sub < 7; ++sub) {
    gf2::BitVec word(7);
    for (size_t i = 0; i < 7; ++i) {
      const size_t q = 7 * sub + i;
      word.set(i, phase_type ? sim_.z_flip(q, shot) : sim_.x_flip(q, shot));
    }
    logicals.set(sub, hamming_.decode_logical(word));
  }
  return hamming_.decode_logical(logicals);
}

bool BatchLevel2Recovery::logical_x_error(size_t shot) const {
  return lane_logical(/*phase_type=*/false, shot);
}

bool BatchLevel2Recovery::logical_z_error(size_t shot) const {
  return lane_logical(/*phase_type=*/true, shot);
}

}  // namespace ftqc::ft
