#include "ft/concatenated_recovery.h"

#include "common/check.h"
#include "ft/gadget_runner.h"
#include "ft/steane_circuits.h"
#include "ft/steane_recovery.h"
#include "gf2/linalg.h"

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

// The level-2 |0>_code preparation on the 49-qubit block at `base`.
sim::Circuit level2_zero_prep(const gf2::Hamming743& hamming, uint32_t base) {
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
  for (size_t r = 0; r < 3; ++r) rows.push_back(hamming.check_matrix().row(r));
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
    constexpr uint32_t kBlock = Level2Recovery::kBlock;
    const auto scratch_a = level2_subblock(Level2Recovery::kScratchA, 0);
    const auto scratch_b = level2_subblock(Level2Recovery::kScratchB, 0);
    Level2Circuits c;
    c.prep_a = level2_zero_prep(gf2::Hamming743{}, kAncA);
    c.prep_b = level2_zero_prep(gf2::Hamming743{}, kAncB);
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
        Level2Circuits::SubblockCycle& cy =
            c.subblock_cycles[base == kData ? 0 : 1][sub];
        cy.layout =
            SteaneCycleLayout{level2_subblock(base, sub), scratch_a, scratch_b};
        cy.circuits = compile_steane_cycle(cy.layout);
      }
    }
    return c;
  }();
  return kCircuits;
}

Level2Recovery::Level2Recovery(const sim::NoiseParams& noise,
                               RecoveryPolicy policy, uint64_t seed)
    : frame_(kNumQubits, seed),
      noise_(noise),
      policy_(policy),
      stochastic_(noise),
      injector_(&stochastic_) {
  for (uint32_t q = 0; q < kAncB; ++q) data_and_a_.push_back(q);
  // The scratch ancillas [kScratchA, kNumQubits) are alive only inside the
  // interleaved level-1 cycles, which do their own storage accounting; the
  // level-2 active set stays the three 49-qubit blocks.
  for (uint32_t q = 0; q < kAncB + kBlock; ++q) all_.push_back(q);
}

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

bool Level2Recovery::DecodedSyndrome::any() const {
  if (top.any()) return true;
  for (const auto& s : sub) {
    if (s.any()) return true;
  }
  return false;
}

bool Level2Recovery::DecodedSyndrome::operator==(
    const DecodedSyndrome& other) const {
  if (!(top == other.top)) return false;
  for (size_t i = 0; i < 7; ++i) {
    if (!(sub[i] == other.sub[i])) return false;
  }
  return true;
}

void Level2Recovery::run_subblock_recoveries(uint32_t base) {
  FTQC_CHECK(base == kData || base == kAncA,
             "subblock recoveries run on the data block or ancilla A");
  for (const Level2Circuits::SubblockCycle& cy :
       level2_circuits().subblock_cycles[base == kData ? 0 : 1]) {
    run_steane_cycle(frame_, *injector_, policy_, hamming_, cy.layout,
                     cy.circuits);
  }
}

void Level2Recovery::prepare_verified_zero_ancilla() {
  const Level2Circuits& circuits = level2_circuits();
  injector_->on_marker("prep:A");
  run_gadget(frame_, circuits.prep_a, *injector_, data_and_a_);
  injector_->on_marker("prep:A:end");
  if (policy_.level2_discipline == Level2Discipline::kExRec) {
    // Extended rectangle: scrub every ancilla subblock with a level-1
    // recovery before the §3.3 verification, so a fan-out fault pair can no
    // longer seed two subblocks that later defeat the hierarchy.
    injector_->on_marker("exrec:A");
    run_subblock_recoveries(kAncA);
    injector_->on_marker("exrec:A:end");
  }
  if (!policy_.verify_ancilla) return;
  injector_->on_marker("verify");

  int votes_one = 0;
  int rounds = 0;
  for (int round = 0; round < policy_.verification_rounds; ++round) {
    run_gadget(frame_, circuits.prep_b, *injector_, all_);
    const auto flips = run_gadget(frame_, circuits.verify, *injector_, all_);
    // Hierarchical decode of the measured block.
    gf2::BitVec logicals(7);
    for (size_t sub = 0; sub < 7; ++sub) {
      gf2::BitVec word(7);
      for (size_t i = 0; i < 7; ++i) word.set(i, flips[7 * sub + i] != 0);
      logicals.set(sub, hamming_.decode_logical(word));
    }
    votes_one += hamming_.decode_logical(logicals) ? 1 : 0;
    ++rounds;
    for (uint32_t i = 0; i < kBlock; ++i) frame_.reset(kAncB + i);
  }
  if (votes_one == rounds && rounds > 0) {
    // Logical flip of the level-2 ancilla: logical X on subblocks {0,1,2},
    // each a 3-qubit bitwise NOT on the subblock's logical-X support.
    sim::Circuit fix;
    std::vector<uint32_t> touched;
    for (size_t sub : {size_t{0}, size_t{1}, size_t{2}}) {
      const auto q = level2_subblock(kAncA, sub);
      for (size_t i : {size_t{0}, size_t{1}, size_t{2}}) {
        fix.x(q[i]);
        touched.push_back(q[i]);
      }
    }
    fix.tick();
    run_gadget(frame_, fix, *injector_, data_and_a_);
    for (uint32_t q : touched) frame_.inject_x(q);
  }
  injector_->on_marker("verify:end");
}

Level2Recovery::DecodedSyndrome Level2Recovery::extract_syndrome(
    bool phase_type) {
  prepare_verified_zero_ancilla();
  injector_->on_marker("extract");

  const auto flips = run_gadget(frame_, level2_circuits().extract[phase_type],
                                *injector_, data_and_a_);
  for (uint32_t i = 0; i < kBlock; ++i) frame_.reset(kAncA + i);
  injector_->on_marker("extract:end");

  // One measurement, both levels (§5): per-subblock Hamming syndromes plus
  // the level-2 syndrome of the subblock logical values.
  DecodedSyndrome out;
  gf2::BitVec logicals(7);
  for (size_t sub = 0; sub < 7; ++sub) {
    gf2::BitVec word(7);
    for (size_t i = 0; i < 7; ++i) word.set(i, flips[7 * sub + i] != 0);
    out.sub[sub] = hamming_.syndrome(word);
    logicals.set(sub, hamming_.decode_logical(word));
  }
  out.top = hamming_.syndrome(logicals);
  return out;
}

void Level2Recovery::correct(bool phase_type, const DecodedSyndrome& syndrome) {
  // With interleaved data recoveries the per-subblock physical errors were
  // already scrubbed between extraction and this point; re-applying the
  // extraction's level-1 corrections would re-inject them, so only the
  // top-level logical fix remains ours to apply.
  const bool delegate_sub_corrections =
      policy_.level2_discipline == Level2Discipline::kExRec &&
      policy_.exrec_data_recoveries;
  sim::Circuit fix;
  std::vector<uint32_t> targets;
  if (!delegate_sub_corrections) {
    // Level-1 corrections: one physical Pauli per flagged subblock.
    for (size_t sub = 0; sub < 7; ++sub) {
      const size_t pos = hamming_.error_position(syndrome.sub[sub]);
      if (pos >= 7) continue;
      const uint32_t q = level2_subblock(kData, sub)[pos];
      if (phase_type) {
        fix.z(q);
      } else {
        fix.x(q);
      }
      targets.push_back(q);
    }
  }
  // Level-2 correction: a logical Pauli on the flagged subblock.
  const size_t bad_sub = hamming_.error_position(syndrome.top);
  if (bad_sub < 7) {
    const auto q = level2_subblock(kData, bad_sub);
    for (size_t i : {size_t{0}, size_t{1}, size_t{2}}) {
      if (phase_type) {
        fix.z(q[i]);
      } else {
        fix.x(q[i]);
      }
      targets.push_back(q[i]);
    }
  }
  if (targets.empty()) return;
  fix.tick();
  std::vector<uint32_t> data_only;
  for (uint32_t q = 0; q < kBlock; ++q) data_only.push_back(q);
  run_gadget(frame_, fix, *injector_, data_only);
  for (uint32_t q : targets) {
    if (phase_type) {
      frame_.inject_z(q);
    } else {
      frame_.inject_x(q);
    }
  }
}

void Level2Recovery::run_cycle() {
  const auto correct_exrec = [this](bool phase_type,
                                    const DecodedSyndrome& syndrome) {
    if (policy_.level2_discipline == Level2Discipline::kExRec &&
        policy_.exrec_data_recoveries) {
      // Optional trailing leg of the extended rectangle: level-1 recoveries
      // on the data subblocks between extraction and correction. They clear
      // the physical errors the extraction saw; correct() then applies the
      // top-level logical fix only.
      injector_->on_marker("exrec:data");
      run_subblock_recoveries(kData);
      injector_->on_marker("exrec:data:end");
    }
    correct(phase_type, syndrome);
  };
  for (const bool phase_type : {false, true}) {
    const DecodedSyndrome syndrome = extract_syndrome(phase_type);
    if (!syndrome.any()) continue;
    if (policy_.repeat_nontrivial_syndrome) {
      const DecodedSyndrome again = extract_syndrome(phase_type);
      if (again == syndrome) correct_exrec(phase_type, syndrome);
    } else {
      correct_exrec(phase_type, syndrome);
    }
  }
}

bool Level2Recovery::hierarchical_decode(bool phase_type) const {
  gf2::BitVec logicals(7);
  for (size_t sub = 0; sub < 7; ++sub) {
    gf2::BitVec word(7);
    for (size_t i = 0; i < 7; ++i) {
      const size_t q = 7 * sub + i;
      word.set(i, phase_type ? frame_.z_frame().get(q) : frame_.x_frame().get(q));
    }
    logicals.set(sub, hamming_.decode_logical(word));
  }
  return hamming_.decode_logical(logicals);
}

bool Level2Recovery::logical_x_error() const {
  return hierarchical_decode(/*phase_type=*/false);
}

bool Level2Recovery::logical_z_error() const {
  return hierarchical_decode(/*phase_type=*/true);
}

}  // namespace ftqc::ft
