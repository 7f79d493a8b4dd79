// The universal-gate stack: [[15,1,3]] Reed-Muller structure, the
// transversal-T rule cross-validated on a state vector, flag-qubit syndrome
// extraction (decode tables, exhaustive single-fault tolerance on both the
// Steane and Reed-Muller codes), the batch-vs-serial FlagRecovery pin and
// recorded fingerprints. The statistical pins under noise live in the
// UniversalBatchIntegration suite (integration tier); everything else is
// unit-fast.
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"

#include "batch_pins.h"
#include "codes/library.h"
#include "fnv1a.h"
#include "ft/fault_enumeration.h"
#include "ft/transversal.h"
#include "sim/runner.h"
#include "sim/statevector_sim.h"
#include "universal/batch_flag_recovery.h"
#include "universal/flag_extraction.h"
#include "universal/flag_recovery.h"

namespace {

using namespace ftqc;

// ---- [[15,1,3]] structure ---------------------------------------------------

TEST(ReedMuller15, ShapeAndLogicals) {
  const auto& code = codes::reed_muller15();
  EXPECT_EQ(code.n(), 15u);
  EXPECT_EQ(code.k(), 1u);
  EXPECT_EQ(code.num_generators(), 14u);
  // Four X-generators (weight-8 hyperplanes), then ten Z-generators.
  for (size_t g = 0; g < 4; ++g) {
    EXPECT_EQ(code.generators()[g].z_part().popcount(), 0u);
    EXPECT_EQ(code.generators()[g].x_part().popcount(), 8u);
  }
  for (size_t g = 4; g < 14; ++g) {
    EXPECT_EQ(code.generators()[g].x_part().popcount(), 0u);
  }
  EXPECT_EQ(code.logical_x().x_part().popcount(), 15u);
  EXPECT_EQ(code.logical_z().z_part().popcount(), 3u);
}

TEST(ReedMuller15, DistillationKernelHas35OddTriples) {
  // The error patterns invisible to the four X-hyperplane parity checks form
  // the [15,11,3] Hamming code; its 35 weight-3 codewords all have odd
  // overlap with X̄ = X^15, which is what gives 15-to-1 its ~35*eps^3 output.
  const auto& code = codes::reed_muller15();
  uint32_t checks[4] = {0, 0, 0, 0};
  for (size_t j = 0; j < 4; ++j) {
    for (size_t q = 0; q < 15; ++q) {
      if (code.generators()[j].x_part().get(q)) checks[j] |= 1u << q;
    }
  }
  size_t weight3 = 0;
  for (uint32_t v = 1; v < (1u << 15); ++v) {
    if (__builtin_popcount(v) != 3) continue;
    bool invisible = true;
    for (uint32_t c : checks) invisible &= __builtin_popcount(v & c) % 2 == 0;
    if (!invisible) continue;
    ++weight3;
    EXPECT_EQ(__builtin_popcount(v) % 2, 1);  // flips the total parity
  }
  EXPECT_EQ(weight3, 35u);
}

// GF(2) row reduction to reduced row echelon form; returns the rows (each a
// 15-bit mask) with distinct pivot columns.
std::vector<uint32_t> rref(std::vector<uint32_t> rows) {
  size_t rank = 0;
  for (int col = 0; col < 15 && rank < rows.size(); ++col) {
    size_t pivot = rank;
    while (pivot < rows.size() && !(rows[pivot] >> col & 1u)) ++pivot;
    if (pivot == rows.size()) continue;
    std::swap(rows[rank], rows[pivot]);
    for (size_t r = 0; r < rows.size(); ++r) {
      if (r != rank && (rows[r] >> col & 1u)) rows[r] ^= rows[rank];
    }
    ++rank;
  }
  rows.resize(rank);
  return rows;
}

TEST(ReedMuller15, TransversalTIsLogicalT) {
  // Prepare logical |+> = (|0̄> + |1̄>)/sqrt(2): the uniform superposition
  // over the span of the four X-generators and X̄. With the span basis in
  // RREF, H on each pivot plus fan-out CXs is an exact encoder.
  const auto& code = codes::reed_muller15();
  std::vector<uint32_t> rows;
  for (size_t j = 0; j < 4; ++j) {
    uint32_t row = 0;
    for (size_t q = 0; q < 15; ++q) {
      if (code.generators()[j].x_part().get(q)) row |= 1u << q;
    }
    rows.push_back(row);
  }
  rows.push_back((1u << 15) - 1);  // X̄ = X^15
  rows = rref(rows);
  ASSERT_EQ(rows.size(), 5u);

  sim::StateVectorSim psi(15, /*seed=*/1);
  for (uint32_t row : rows) {
    const int pivot = __builtin_ctz(row);
    psi.apply_h(static_cast<size_t>(pivot));
    for (int q = pivot + 1; q < 15; ++q) {
      if (row >> q & 1u) psi.apply_cx(static_cast<size_t>(pivot),
                                      static_cast<size_t>(q));
    }
  }

  // Bitwise physical T† (the rz(-pi/4) layer) must act as logical T: on a
  // weight-w basis state it contributes e^{-i pi w/4} (up to one global
  // phase), and the codeword weights are 0 mod 8 on the |0̄> branch and
  // 7 mod 8 on the |1̄> branch — so |0̄> is fixed and |1̄> gains e^{i pi/4}.
  static constexpr uint32_t kBlock[15] = {0, 1, 2,  3,  4,  5,  6, 7,
                                          8, 9, 10, 11, 12, 13, 14};
  run_circuit(psi, ft::logical_t_transversal(kBlock));

  const std::complex<double> amp0 = psi.amplitude(0);
  ASSERT_GT(std::abs(amp0), 1e-12);
  const std::complex<double> t_phase(std::cos(M_PI / 4), std::sin(M_PI / 4));
  size_t support = 0;
  for (uint64_t b = 0; b < (1u << 15); ++b) {
    const std::complex<double> amp = psi.amplitude(b);
    if (std::abs(amp) < 1e-12) continue;
    ++support;
    const int w = __builtin_popcountll(b);
    if (w % 2 == 0) {
      EXPECT_EQ(w % 8, 0);
      EXPECT_LT(std::abs(amp - amp0), 1e-9);
    } else {
      EXPECT_EQ(w % 8, 7);
      EXPECT_LT(std::abs(amp - amp0 * t_phase), 1e-9);
    }
  }
  EXPECT_EQ(support, 32u);  // 16 codewords per logical branch
}

// ---- Flag decode tables -----------------------------------------------------

TEST(FlagExtraction, TablesCoverBothCodes) {
  for (const auto* code : {&codes::steane(), &codes::reed_muller15()}) {
    const universal::FlagDecodeTable table(*code);
    EXPECT_EQ(table.num_generators(), code->num_generators());
    EXPECT_GT(table.table_size(), 0u);
    for (size_t g = 0; g < code->num_generators(); ++g) {
      // The comb order is a permutation of the generator's support.
      const auto& order = table.order(g);
      EXPECT_EQ(order.size(), code->generators()[g].weight());
      for (uint32_t q : order) {
        EXPECT_NE(code->generators()[g].pauli_at(q), 'I');
      }
      // The trivial follow-up syndrome decodes to the identity: a fired
      // flag whose re-extraction reads clean needs no correction.
      const gf2::BitVec trivial(code->num_generators());
      const pauli::PauliString* id = table.decode(g, trivial);
      ASSERT_NE(id, nullptr);
      EXPECT_TRUE(id->is_identity());
    }
  }
}

// ---- Single-fault tolerance -------------------------------------------------

// Exhaustive order-eps scan (§3): no single fault anywhere in the flagged
// cycle — gates, preps, measurements, storage — may leave a logical error.
void expect_single_fault_tolerant(const codes::StabilizerCode& code) {
  // One recovery object for the whole scan: the [[15,1,3]] lookup-table BFS
  // covers 2^14 syndromes and the scan replays the cycle thousands of times,
  // so per-replay construction would dominate the runtime. reset() restores
  // a clean frame between replays.
  universal::FlagRecovery rec(code, sim::NoiseParams{}, ft::RecoveryPolicy{},
                              /*seed=*/77);
  const ft::GadgetExperiment experiment = [&rec](ft::NoiseInjector& inj) {
    rec.reset();
    rec.set_injector(&inj);
    rec.run_cycle();
    rec.set_injector(nullptr);
    return rec.any_logical_error();
  };
  const ft::SingleFaultScan scan =
      ft::scan_single_faults(experiment, ft::all_kinds());
  EXPECT_GT(scan.num_locations, 100u);
  EXPECT_EQ(scan.faults_failing, 0u)
      << code.name() << ": " << scan.faults_failing << " of "
      << scan.faults_tried << " single faults caused a logical error";
}

TEST(FlagRecovery, NoSingleFaultFailsSteane) {
  expect_single_fault_tolerant(codes::steane());
}

TEST(FlagRecovery, NoSingleFaultFailsReedMuller15) {
  expect_single_fault_tolerant(codes::reed_muller15());
}

TEST(FlagRecovery, CorrectsInjectedSingleErrors) {
  // Noiseless cycles fix every weight-1 Pauli without firing a flag.
  for (const auto* code : {&codes::steane(), &codes::reed_muller15()}) {
    universal::FlagRecovery rec(*code, sim::NoiseParams{}, ft::RecoveryPolicy{},
                                /*seed=*/5);
    for (char pauli : {'X', 'Y', 'Z'}) {
      for (uint32_t q = 0; q < code->n(); ++q) {
        rec.reset();
        rec.inject_data(q, pauli);
        rec.run_cycle();
        EXPECT_TRUE(rec.residual().is_identity() ||
                    code->in_stabilizer_group(rec.residual()));
        EXPECT_FALSE(rec.any_logical_error());
        EXPECT_EQ(rec.flags_raised(), 0u);
      }
    }
  }
}

// ---- Batch-vs-serial pin ----------------------------------------------------

TEST(BatchFlagRecovery, NoiselessBitForBitPin) {
  // Same injected pattern on every lane, zero noise: each of the 128 lanes
  // must reproduce the serial driver's residual exactly — including the
  // word-boundary lanes 63/64 — for single and multi-qubit patterns.
  struct Pattern {
    std::vector<std::pair<uint32_t, char>> paulis;
  };
  const std::vector<Pattern> patterns = {
      {{{2, 'X'}}},
      {{{5, 'Z'}}},
      {{{0, 'Y'}}},
      {{{1, 'X'}, {4, 'Z'}}},
      {{{0, 'X'}, {1, 'X'}, {2, 'X'}}},
  };
  for (const auto* code : {&codes::steane(), &codes::reed_muller15()}) {
    for (const Pattern& pattern : patterns) {
      universal::FlagRecovery serial(*code, sim::NoiseParams{},
                                     ft::RecoveryPolicy{}, /*seed=*/11);
      universal::BatchFlagRecovery batch(*code, sim::NoiseParams{},
                                         ft::RecoveryPolicy{}, /*shots=*/128,
                                         /*seed=*/99);
      for (const auto& [q, p] : pattern.paulis) {
        serial.inject_data(q, p);
        batch.inject_data(q, p);
      }
      serial.run_cycle();
      batch.run_cycle();
      for (size_t shot : {size_t{0}, size_t{63}, size_t{64}, size_t{127}}) {
        EXPECT_EQ(batch.residual(shot).to_string(),
                  serial.residual().to_string())
            << code->name() << " shot " << shot;
        EXPECT_EQ(batch.any_logical_error(shot), serial.any_logical_error());
      }
      EXPECT_EQ(batch.count_any_logical_error(),
                serial.any_logical_error() ? batch.num_shots() : 0u);
      EXPECT_EQ(batch.flags_raised(), 0u);
      EXPECT_EQ(serial.flags_raised(), 0u);
    }
  }
}

// ---- Recorded fingerprints --------------------------------------------------

// Per-shot verdicts, raised flags and data frames of consecutive serial
// shots (one driver, reset between shots), at uniform gate noise and at
// Z-biased gate noise with storage noise and heralded erasure. Recorded
// before the flag circuits and tables were shared with the batch driver.
sim::NoiseParams flag_fingerprint_noise(bool biased) {
  if (!biased) return sim::NoiseParams::uniform_gate(8e-3);
  auto noise = sim::NoiseParams::biased_gate(8e-3, /*eta=*/4.0,
                                             /*eps_store=*/2e-3);
  noise.p_erase = 4e-3;
  return noise;
}

uint64_t serial_flag_fingerprint(const codes::StabilizerCode& code,
                                 bool biased, size_t shots) {
  universal::FlagRecovery rec(code, flag_fingerprint_noise(biased),
                              ft::RecoveryPolicy{}, /*seed=*/19);
  Fnv1a hash;
  for (size_t s = 0; s < shots; ++s) {
    rec.reset();
    rec.run_cycle();
    hash.add(rec.any_logical_error());
    hash.add(rec.flags_raised());
    for (uint32_t q = 0; q < code.n(); ++q) {
      hash.add(uint64_t{rec.frame().x_frame().get(q)} |
               uint64_t{rec.frame().z_frame().get(q)} << 1);
    }
  }
  return hash.value();
}

TEST(FlagRecovery, SteaneShotsMatchRecordedFingerprint) {
  const uint64_t expected[2] = {0x0368d9a9d8808a46ull,
                                 0x87bc3a42299125c7ull};
  for (const bool biased : {false, true}) {
    EXPECT_EQ(serial_flag_fingerprint(codes::steane(), biased, 2000),
              expected[biased])
        << (biased ? "biased" : "uniform");
  }
}

TEST(FlagRecovery, ReedMuller15ShotsMatchRecordedFingerprint) {
  const uint64_t expected[2] = {0xb123103df8047c87ull,
                                 0xd9e84222c23e6961ull};
  for (const bool biased : {false, true}) {
    EXPECT_EQ(serial_flag_fingerprint(codes::reed_muller15(), biased, 500),
              expected[biased])
        << (biased ? "biased" : "uniform");
  }
}

// The batch driver's draws, recorded after its corrections moved onto the
// shared per-qubit fix masks (apply_fix) — by design a different
// draw order from the per-group fixes before, unlike the serial pins above.
uint64_t batch_flag_fingerprint(const codes::StabilizerCode& code,
                                bool biased) {
  universal::BatchFlagRecovery rec(code, flag_fingerprint_noise(biased),
                                   ft::RecoveryPolicy{}, /*shots=*/4096,
                                   /*seed=*/23);
  rec.run_cycle();
  Fnv1a hash;
  for (size_t shot = 0; shot < rec.num_shots(); ++shot) {
    hash.add(rec.any_logical_error(shot));
  }
  hash.add(rec.count_any_logical_error());
  hash.add(rec.flags_raised());
  const sim::BatchFrameSim& frames = rec.frames();
  for (size_t w = 0; w < rec.num_words(); ++w) {
    for (uint32_t q = 0; q < code.n(); ++q) {
      hash.add(frames.x_flips(q)[w]);
      hash.add(frames.z_flips(q)[w]);
    }
    hash.add(frames.abort_mask()[w]);
  }
  return hash.value();
}

TEST(BatchFlagRecovery, BlocksMatchRecordedFingerprint) {
  const uint64_t expected[2][2] = {
      {0x4acb5811c4254f26ull, 0x638faa27d8da9864ull},
      {0x9e1cdc25caaa4466ull, 0xe5660277acca05a4ull}};
  const codes::StabilizerCode* library[2] = {&codes::steane(),
                                             &codes::reed_muller15()};
  for (size_t c = 0; c < 2; ++c) {
    for (const bool biased : {false, true}) {
      EXPECT_EQ(batch_flag_fingerprint(*library[c], biased),
                expected[c][biased])
          << library[c]->name() << (biased ? " biased" : " uniform");
    }
  }
}

// ---- Statistical pin under noise (integration tier) -------------------------

TEST(UniversalBatchIntegration, BatchMatchesSerialUnderZTest) {
  // Same noise, independent seed streams: the failure counts must pass the
  // pooled two-sample z-test at a 1e-6 false-failure rate, and both paths
  // must be alive (failures observed, flags actually firing).
  const auto noise = sim::NoiseParams::uniform_gate(3e-3);
  const auto& code = codes::steane();
  const size_t shots = 8192;

  uint64_t serial_fails = 0, serial_flags = 0;
  for (size_t s = 0; s < shots; ++s) {
    universal::FlagRecovery rec(code, noise, ft::RecoveryPolicy{},
                                /*seed=*/1000 + 0x9E37 * s);
    rec.run_cycle();
    serial_fails += rec.any_logical_error();
    serial_flags += rec.flags_raised();
  }
  universal::BatchFlagRecovery batch(code, noise, ft::RecoveryPolicy{}, shots,
                                     /*seed=*/424242);
  batch.run_cycle();
  const uint64_t batch_fails = batch.count_any_logical_error(shots);

  EXPECT_GT(serial_fails, 0u);
  EXPECT_GT(batch_fails, 0u);
  EXPECT_GT(serial_flags, 0u);
  EXPECT_GT(batch.flags_raised(), 0u);
  expect_counts_agree(serial_fails, batch_fails, shots);
}

TEST(UniversalBatchIntegration, MemoryCyclesMatchSerial) {
  // Several cycles with memory noise in between, so the pin sees the
  // correction (see expect_memory_cycles_agree).
  const auto noise = sim::NoiseParams::uniform_gate(2e-3);
  universal::FlagRecovery serial(codes::steane(), noise, ft::RecoveryPolicy{},
                                 /*seed=*/15);
  universal::BatchFlagRecovery batch(codes::steane(), noise,
                                     ft::RecoveryPolicy{}, /*shots=*/8192,
                                     /*seed=*/89);
  expect_memory_cycles_agree(serial, batch, /*cycles=*/3, /*p=*/0.03);
}

}  // namespace
