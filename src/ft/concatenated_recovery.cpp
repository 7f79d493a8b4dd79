#include "ft/concatenated_recovery.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "ft/batch_recovery.h"
#include "ft/lanes.h"
#include "ft/steane_circuits.h"
#include "ft/steane_recovery.h"
#include "gf2/linalg.h"
#include "sim/simd.h"

namespace ftqc::ft {

std::array<uint32_t, 7> level2_subblock(uint32_t base, size_t sub) {
  std::array<uint32_t, 7> q{};
  for (uint32_t i = 0; i < 7; ++i) {
    q[i] = base + static_cast<uint32_t>(7 * sub) + i;
  }
  return q;
}

namespace {

constexpr uint32_t kData = 0;
constexpr uint32_t kAncA = 49;
constexpr uint32_t kAncB = 98;
constexpr uint32_t kBlock = Level2Recovery::kBlock;

// The level-2 |0>_code preparation on the 49-qubit block at `base`.
sim::Circuit level2_zero_prep(uint32_t base) {
  sim::Circuit c;
  // Seven level-1 |0>_code preparations (built on local qubits 0..6 and
  // remapped onto the subblock).
  static const std::array<uint32_t, 7> kLocal = {0, 1, 2, 3, 4, 5, 6};
  const sim::Circuit local_prep = steane_zero_prep(kLocal);
  for (size_t sub = 0; sub < 7; ++sub) {
    const auto q = level2_subblock(base, sub);
    c.append_circuit(local_prep, std::vector<uint32_t>(q.begin(), q.end()));
  }
  // Fig. 3 at the logical level: pivot the Hamming rows away from the
  // logical-X support {0,1,2}, bitwise-H the pivot subblocks, then
  // transversal XOR fan-outs between subblocks.
  const uint32_t avoid[3] = {0, 1, 2};
  std::vector<bool> avoided(7, false);
  for (uint32_t a : avoid) avoided[a] = true;
  // Re-derive the pivoted rows (same algorithm as steane_zero_prep).
  std::vector<gf2::BitVec> rows;
  for (size_t r = 0; r < 3; ++r) {
    rows.push_back(gf2::hamming743().check_matrix().row(r));
  }
  std::vector<size_t> pivots;
  size_t next = 0;
  for (size_t col = 0; col < 7 && next < rows.size(); ++col) {
    if (avoided[col]) continue;
    size_t found = rows.size();
    for (size_t r = next; r < rows.size(); ++r) {
      if (rows[r].get(col)) {
        found = r;
        break;
      }
    }
    if (found == rows.size()) continue;
    std::swap(rows[next], rows[found]);
    for (size_t r = 0; r < rows.size(); ++r) {
      if (r != next && rows[r].get(col)) rows[r] ^= rows[next];
    }
    pivots.push_back(col);
    ++next;
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    for (uint32_t q : level2_subblock(base, pivots[r])) c.h(q);  // logical H
  }
  c.tick();
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t col = 0; col < 7; ++col) {
      if (col == pivots[r] || !rows[r].get(col)) continue;
      const auto src = level2_subblock(base, pivots[r]);
      const auto dst = level2_subblock(base, col);
      for (size_t i = 0; i < 7; ++i) c.cx(src[i], dst[i]);  // logical XOR
      c.tick();
    }
  }
  return c;
}

}  // namespace

const Level2Circuits& level2_circuits() {
  static const Level2Circuits kCircuits = [] {
    const auto scratch_a = level2_subblock(Level2Recovery::kScratchA, 0);
    const auto scratch_b = level2_subblock(Level2Recovery::kScratchB, 0);
    Level2Circuits c;
    c.prep_a = level2_zero_prep(kAncA);
    c.prep_b = level2_zero_prep(kAncB);
    for (uint32_t i = 0; i < kBlock; ++i) c.verify.cx(kAncA + i, kAncB + i);
    c.verify.tick();
    for (uint32_t i = 0; i < kBlock; ++i) c.verify.m(kAncB + i);
    c.verify.tick();
    // Bit-flip: rotate the ancilla, XOR data -> ancilla, measure Z.
    // Phase-flip: XOR ancilla -> data, measure X.
    sim::Circuit& bit = c.extract[0];
    for (uint32_t i = 0; i < kBlock; ++i) bit.h(kAncA + i);
    bit.tick();
    for (uint32_t i = 0; i < kBlock; ++i) bit.cx(kData + i, kAncA + i);
    bit.tick();
    for (uint32_t i = 0; i < kBlock; ++i) bit.m(kAncA + i);
    bit.tick();
    sim::Circuit& phase = c.extract[1];
    for (uint32_t i = 0; i < kBlock; ++i) phase.cx(kAncA + i, kData + i);
    phase.tick();
    for (uint32_t i = 0; i < kBlock; ++i) phase.mx(kAncA + i);
    phase.tick();
    for (const uint32_t base : {kData, kAncA}) {
      for (size_t sub = 0; sub < 7; ++sub) {
        const SteaneCycleLayout layout{level2_subblock(base, sub), scratch_a,
                                       scratch_b};
        c.subblock_cycles[base == kData ? 0 : 1][sub] =
            compile_steane_cycle(layout);
      }
    }
    for (uint32_t q = 0; q < kAncB; ++q) c.data_and_a.push_back(q);
    for (uint32_t q = 0; q < kAncB + kBlock; ++q) c.all.push_back(q);
    return c;
  }();
  return kCircuits;
}

void level2_decode_rows(const uint64_t* const rows[49], uint64_t* logicals,
                        uint64_t* out, size_t words) {
  const gf2::Hamming743& hamming = gf2::hamming743();
  for (size_t sub = 0; sub < 7; ++sub) {
    batch_decode_rows(hamming, rows + 7 * sub, /*logical=*/true,
                      logicals + sub * words, words);
  }
  const uint64_t* logical_rows[7];
  for (size_t sub = 0; sub < 7; ++sub) {
    logical_rows[sub] = logicals + sub * words;
  }
  batch_decode_rows(hamming, logical_rows, /*logical=*/true, out, words);
}

namespace {

// The level-2 cycle on a lane engine.
template <typename Lanes>
class Level2Cycle {
 public:
  Level2Cycle(Lanes& lanes, const RecoveryPolicy& policy)
      : lanes_(lanes),
        policy_(policy),
        circuits_(level2_circuits()),
        words_(lanes.words()) {}

  void run() {
    const bool data_recoveries =
        policy_.level2_discipline == Level2Discipline::kExRec &&
        policy_.exrec_data_recoveries;
    for (const bool phase_type : {false, true}) {
      run_repeat_policy(
          lanes_, kSyndromeRows, policy_.repeat_nontrivial_syndrome,
          /*active=*/nullptr,
          [&](const uint64_t* mask, uint64_t* out) {
            extract_syndrome(phase_type, mask, out);
          },
          [&](const uint64_t* syn, const uint64_t* act) {
            if (data_recoveries && lanes_.any(act)) {
              // Trailing leg of the extended rectangle: level-1 recoveries
              // on the data subblocks between extraction and correction,
              // only on the lanes that are about to correct. They clear the
              // physical errors the extraction saw; correct() then applies
              // the top-level logical fix only.
              lanes_.marker("exrec:data", act);
              run_subblock_recoveries(kData, act);
              lanes_.marker("exrec:data:end", act);
            }
            correct(phase_type, syn, act);
          });
    }
  }

 private:
  // Three level-1 Hamming syndrome rows per subblock (rows [3*sub,
  // 3*sub+3)), then the three level-2 rows (rows [21, 24)). The §3.4
  // repeat-policy equality compares exactly these bits.
  static constexpr size_t kSyndromeRows = 24;

  // exRec interleave: one verified level-1 recovery cycle per 7-qubit
  // subblock of the block starting at `base`, on the shared scratch
  // ancillas; the lane mask threads through so only the lanes executing
  // this step collect the interleave's faults and corrections.
  void run_subblock_recoveries(uint32_t base, const uint64_t* lane_mask) {
    for (const SteaneCycleCircuits& cycle :
         circuits_.subblock_cycles[base == kData ? 0 : 1]) {
      steane_cycle(lanes_, policy_, cycle, lane_mask);
    }
  }

  void prepare_verified_zero_ancilla(const uint64_t* lane_mask) {
    lanes_.marker("prep:A", lane_mask);
    lanes_.run(circuits_.prep_a, circuits_.data_and_a, lane_mask);
    lanes_.marker("prep:A:end", lane_mask);
    if (policy_.level2_discipline == Level2Discipline::kExRec) {
      // Extended rectangle: scrub every ancilla subblock with a level-1
      // recovery before the §3.3 verification, so a fan-out fault pair can
      // no longer seed two subblocks that later defeat the hierarchy.
      lanes_.marker("exrec:A", lane_mask);
      run_subblock_recoveries(kAncA, lane_mask);
      lanes_.marker("exrec:A:end", lane_mask);
    }
    if (!policy_.verify_ancilla) return;
    lanes_.marker("verify", lane_mask);
    if (policy_.verification_rounds > 0) verify_zero_ancilla(lane_mask);
    lanes_.marker("verify:end", lane_mask);
  }

  void verify_zero_ancilla(const uint64_t* lane_mask) {
    // A lane is fixed only when EVERY round decodes the measured block
    // hierarchically to "logically flipped".
    std::vector<uint64_t> votes(words_, ~uint64_t{0});
    std::vector<uint64_t> logicals(7 * words_), vote(words_);
    for (int round = 0; round < policy_.verification_rounds; ++round) {
      lanes_.run(circuits_.prep_b, circuits_.all, lane_mask);
      const auto flips =
          lanes_.run(circuits_.verify, circuits_.all, lane_mask);
      FTQC_CHECK(flips.size() == kBlock * words_,
                 "verification must read 49 qubits");
      const uint64_t* flip_rows[49];
      for (size_t i = 0; i < kBlock; ++i) flip_rows[i] = &flips[i * words_];
      level2_decode_rows(flip_rows, logicals.data(), vote.data(), words_);
      sim::simd::and_into(votes.data(), vote.data(), words_);
      for (uint32_t i = 0; i < kBlock; ++i) lanes_.reset(kAncB + i);
    }
    if (lane_mask != nullptr) {
      sim::simd::and_into(votes.data(), lane_mask, words_);
    }
    if (!lanes_.any(votes.data())) return;

    // Logical flip of the level-2 ancilla: logical X on subblocks {0,1,2},
    // each a 3-qubit bitwise NOT on the subblock's logical-X support — a
    // one-layer circuit of nine NOTs (gate noise on the targets, storage on
    // the rest of data+ancilla A) that also flips the frame.
    std::array<bool, kAncB> is_target{};
    std::vector<uint32_t> targets;
    for (size_t sub : {size_t{0}, size_t{1}, size_t{2}}) {
      const auto q = level2_subblock(kAncA, sub);
      for (size_t i : {size_t{0}, size_t{1}, size_t{2}}) {
        targets.push_back(q[i]);
        is_target[q[i]] = true;
      }
    }
    for (uint32_t q : targets) lanes_.gate1(q, votes.data());
    for (uint32_t q : circuits_.data_and_a) {
      if (!is_target[q]) lanes_.storage(q, votes.data());
    }
    for (uint32_t q : targets) lanes_.inject_x(q, votes.data());
  }

  void extract_syndrome(bool phase_type, const uint64_t* lane_mask,
                        uint64_t* rows24) {
    prepare_verified_zero_ancilla(lane_mask);
    lanes_.marker("extract", lane_mask);
    const auto flips = lanes_.run(circuits_.extract[phase_type],
                                  circuits_.data_and_a, lane_mask);
    FTQC_CHECK(flips.size() == kBlock * words_,
               "extraction must read 49 qubits");
    for (uint32_t i = 0; i < kBlock; ++i) lanes_.reset(kAncA + i);
    lanes_.marker("extract:end", lane_mask);

    // One measurement, both levels (§5): per-subblock Hamming syndrome rows
    // plus the level-2 syndrome rows over the bit-sliced subblock logical
    // values. Copied out of the record immediately: nested gadget replays
    // (the exRec data recoveries, the §3.4 repeat) drop the record.
    const gf2::Hamming743& hamming = gf2::hamming743();
    const gf2::BitMat& h = hamming.check_matrix();
    std::vector<uint64_t> logicals(7 * words_);
    for (size_t sub = 0; sub < 7; ++sub) {
      const uint64_t* sub_rows[7];
      for (size_t i = 0; i < 7; ++i) {
        sub_rows[i] = &flips[(7 * sub + i) * words_];
      }
      for (size_t j = 0; j < 3; ++j) {
        uint64_t* out = rows24 + (3 * sub + j) * words_;
        std::fill_n(out, words_, 0);
        for (size_t i = 0; i < 7; ++i) {
          if (!h.row(j).get(i)) continue;
          sim::simd::xor_into(out, sub_rows[i], words_);
        }
      }
      batch_decode_rows(hamming, sub_rows, /*logical=*/true,
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

  void correct(bool phase_type, const uint64_t* rows24,
               const uint64_t* act_mask) {
    if (!lanes_.any(act_mask)) return;
    // With interleaved data recoveries the per-subblock physical errors
    // were already scrubbed between extraction and this point; re-applying
    // the extraction's level-1 corrections would re-inject them, so only
    // the top-level logical fix remains ours to apply.
    const bool delegate_sub_corrections =
        policy_.level2_discipline == Level2Discipline::kExRec &&
        policy_.exrec_data_recoveries;

    // Per-qubit target masks: l1 = level-1 physical fixes, l2 = the level-2
    // logical fix (subblocks' logical-X/Z support {0,1,2}). A lane can hit
    // the same qubit through both — the fix circuit then carries two gates
    // (two fault opportunities) whose frame shifts cancel, so gate noise is
    // applied per component and the injection uses the XOR.
    std::vector<uint64_t> l1(kBlock * words_, 0), l2(kBlock * words_, 0);
    std::vector<uint64_t> pos(7 * words_);
    if (!delegate_sub_corrections) {
      for (size_t sub = 0; sub < 7; ++sub) {
        batch_decode_positions(rows24 + 3 * sub * words_, act_mask,
                               pos.data(), words_);
        std::copy_n(pos.data(), 7 * words_, l1.data() + 7 * sub * words_);
      }
    }
    batch_decode_positions(rows24 + 21 * words_, act_mask, pos.data(),
                           words_);
    for (size_t bad = 0; bad < 7; ++bad) {
      for (size_t i = 0; i < 3; ++i) {
        std::copy_n(pos.data() + bad * words_, words_,
                    l2.data() + (7 * bad + i) * words_);
      }
    }

    // Lanes with at least one target; lanes of act_mask whose syndrome
    // decoded to "no error" run no fix circuit at all.
    std::vector<uint64_t> has(words_, 0);
    for (size_t q = 0; q < kBlock; ++q) {
      sim::simd::or_into(has.data(), l1.data() + q * words_, words_);
      sim::simd::or_into(has.data(), l2.data() + q * words_, words_);
    }
    if (!lanes_.any(has.data())) return;

    // The fix circuit: the level-1 gates, then the level-2 gates, then
    // storage on the rest of the data block.
    for (uint32_t q = 0; q < kBlock; ++q) {
      const uint64_t* a = l1.data() + q * words_;
      if (lanes_.any(a)) lanes_.gate1(q, a);
    }
    for (uint32_t q = 0; q < kBlock; ++q) {
      const uint64_t* b = l2.data() + q * words_;
      if (lanes_.any(b)) lanes_.gate1(q, b);
    }
    std::vector<uint64_t> mask(words_);
    for (uint32_t q = 0; q < kBlock; ++q) {
      const uint64_t* a = l1.data() + q * words_;
      const uint64_t* b = l2.data() + q * words_;
      // has & ~a & ~b, two register-wide passes.
      sim::simd::andnot(mask.data(), has.data(), a, words_);
      sim::simd::andnot(mask.data(), mask.data(), b, words_);
      lanes_.storage(q, mask.data());
    }
    for (uint32_t q = 0; q < kBlock; ++q) {
      std::copy_n(l1.data() + q * words_, words_, mask.data());
      sim::simd::xor_into(mask.data(), l2.data() + q * words_, words_);
      if (!lanes_.any(mask.data())) continue;
      if (phase_type) {
        lanes_.inject_z(q, mask.data());
      } else {
        lanes_.inject_x(q, mask.data());
      }
    }
  }

  Lanes& lanes_;
  const RecoveryPolicy& policy_;
  const Level2Circuits& circuits_;
  size_t words_;
};

}  // namespace

template <typename Lanes>
void level2_cycle(Lanes& lanes, const RecoveryPolicy& policy) {
  Level2Cycle<Lanes>(lanes, policy).run();
}

template void level2_cycle<BatchLanes>(BatchLanes&, const RecoveryPolicy&);
template void level2_cycle<FrameLane>(FrameLane&, const RecoveryPolicy&);

Level2Recovery::Level2Recovery(const sim::NoiseParams& noise,
                               RecoveryPolicy policy, uint64_t seed)
    : frame_(kNumQubits, seed),
      policy_(policy),
      stochastic_(noise),
      injector_(&stochastic_) {}

void Level2Recovery::reset() { frame_.clear(); }

void Level2Recovery::set_injector(NoiseInjector* injector) {
  injector_ = injector != nullptr ? injector : &stochastic_;
}

void Level2Recovery::inject_data(uint32_t q, char pauli) {
  FTQC_CHECK(q < kBlock, "data qubit index out of range");
  inject_pauli(frame_, q, pauli);
}

void Level2Recovery::apply_memory_noise(double p) {
  for (uint32_t q = 0; q < kBlock; ++q) frame_.depolarize1(q, p);
}

void Level2Recovery::run_cycle() {
  FrameLane lane(frame_, *injector_);
  level2_cycle(lane, policy_);
}

bool Level2Recovery::logical_x_error() const {
  return level2_decode_shot([&](size_t q) { return frame_.x_frame().get(q); });
}

bool Level2Recovery::logical_z_error() const {
  return level2_decode_shot([&](size_t q) { return frame_.z_frame().get(q); });
}

}  // namespace ftqc::ft
