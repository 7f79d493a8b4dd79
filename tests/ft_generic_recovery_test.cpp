#include <gtest/gtest.h>

#include <cctype>
#include <ostream>

#include "codes/library.h"
#include "fnv1a.h"
#include "ft/batch_shor.h"
#include "ft/fault_enumeration.h"
#include "ft/generic_recovery.h"
#include "sim/runner.h"
#include "sim/statevector_sim.h"

namespace ftqc::ft {
namespace {

const sim::NoiseParams kNoiseless{};

TEST(ControlledPauli, CYDecompositionMatchesDirectConstruction) {
  // Verify (I⊗S) CX (I⊗S†) == controlled-Y on the state-vector engine.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    sim::Circuit prep(2);
    Rng rng(seed);
    for (uint32_t q = 0; q < 2; ++q) {
      if (rng.bernoulli(0.5)) prep.h(q);
      if (rng.bernoulli(0.5)) prep.s(q);
      if (rng.bernoulli(0.5)) prep.x(q);
    }
    sim::StateVectorSim a(2, seed), b(2, seed);
    run_circuit(a, prep);
    run_circuit(b, prep);
    sim::Circuit cy(2);
    append_controlled_pauli(cy, 0, 1, 'Y');
    run_circuit(a, cy);
    // Independent reference: CZ·CX acts on the control-|1> block as
    // Z·X = iY, so CY = S†_control · CZ · CX (the S† cancels the i).
    sim::Circuit ref(2);
    ref.cx(0, 1);
    ref.cz(0, 1);
    ref.s_dag(0);
    run_circuit(b, ref);
    EXPECT_NEAR(a.fidelity_with(b), 1.0, 1e-9) << "seed " << seed;
  }
}

TEST(GenericShorRecovery, NoiselessCycleCleanOnEveryLibraryCode) {
  for (const auto* code : {&codes::five_qubit(), &codes::steane(),
                           &codes::shor9(), &codes::hamming15()}) {
    GenericShorRecovery rec(*code, kNoiseless, RecoveryPolicy{}, 3);
    rec.run_cycle();
    EXPECT_FALSE(rec.any_logical_error()) << code->name();
    EXPECT_TRUE(rec.residual().is_identity()) << code->name();
  }
}

TEST(GenericShorRecovery, CorrectsAllSingleErrorsOnFiveQubitCode) {
  const auto& code = codes::five_qubit();
  for (uint32_t q = 0; q < 5; ++q) {
    for (char pauli : {'X', 'Y', 'Z'}) {
      GenericShorRecovery rec(code, kNoiseless, RecoveryPolicy{}, 11 + q);
      rec.inject_data(q, pauli);
      rec.run_cycle();
      EXPECT_FALSE(rec.any_logical_error())
          << pauli << " on qubit " << q << " of " << code.name();
    }
  }
}

TEST(GenericShorRecovery, CorrectsAllSingleErrorsOnHamming15) {
  const auto& code = codes::hamming15();
  for (uint32_t q = 0; q < 15; ++q) {
    for (char pauli : {'X', 'Y', 'Z'}) {
      GenericShorRecovery rec(code, kNoiseless, RecoveryPolicy{}, 23 + q);
      rec.inject_data(q, pauli);
      rec.run_cycle();
      EXPECT_FALSE(rec.any_logical_error())
          << pauli << " on qubit " << q << " of " << code.name();
    }
  }
}

// §3's fault-tolerance property, checked exhaustively: no single fault
// anywhere in one cat-state recovery cycle may leave a logical error. §4.2
// claims it for ANY stabilizer code: the non-CSS five-qubit code (one
// group, controlled-Pauli combs), and the CSS Steane, Shor and [[15,7,3]]
// codes (Shor-state readout of the Z-type generators, two groups). The
// location counts pin each code's circuits; Steane's 918 locations and
// 3,282 faults are those of the Steane-only driver this one replaced.
struct ScanCase {
  const codes::StabilizerCode* code;
  size_t locations;
  size_t faults;
};

// CTest names each instance after the printed parameter: print the code's
// alphanumeric name so the names are the same in every build.
void PrintTo(const ScanCase& scan_case, std::ostream* os) {
  for (const char c : scan_case.code->name()) {
    if (std::isalnum(static_cast<unsigned char>(c))) *os << c;
  }
}

class ShorSingleFaultScan : public ::testing::TestWithParam<ScanCase> {};

TEST_P(ShorSingleFaultScan, SurvivesEverySingleFault) {
  const ScanCase& scan_case = GetParam();
  const auto scan = scan_single_faults(
      [&](NoiseInjector& injector) {
        GenericShorRecovery rec(*scan_case.code, kNoiseless, RecoveryPolicy{},
                                79);
        rec.set_injector(&injector);
        rec.run_cycle();
        rec.set_injector(nullptr);
        return rec.any_logical_error();
      },
      all_kinds());
  EXPECT_EQ(scan.num_locations, scan_case.locations);
  EXPECT_EQ(scan.faults_tried, scan_case.faults);
  EXPECT_EQ(scan.faults_failing, 0u)
      << "a single fault broke the cat-state recovery";
}

INSTANTIATE_TEST_SUITE_P(
    LibraryCodes, ShorSingleFaultScan,
    ::testing::Values(ScanCase{&codes::five_qubit(), 484, 1804},
                      ScanCase{&codes::steane(), 918, 3282},
                      ScanCase{&codes::shor9(), 1448, 4888},
                      ScanCase{&codes::hamming15(), 3992, 13320}));

// --- Recorded fingerprints ---------------------------------------------------
//
// Per-shot logical verdicts, discarded-cat counts and data frames, hashed
// at two noise points: uniform depolarizing gates, and Z-biased gates with
// storage noise and heralded erasure (which exercises the herald discard
// in the cat-retry loop). The Steane constants were recorded with the
// Steane-only cat-state drivers (ShorRecovery and BatchShorRecovery) before
// they were deleted, so they pin the code-generic drivers on
// codes::steane() to the same decisions, draw for draw.

sim::NoiseParams fingerprint_noise(bool biased) {
  if (!biased) return sim::NoiseParams::uniform_gate(8e-3);
  auto noise = sim::NoiseParams::biased_gate(8e-3, /*eta=*/4.0,
                                             /*eps_store=*/2e-3);
  noise.p_erase = 4e-3;
  return noise;
}

template <typename MakeDriver>
uint64_t serial_fingerprint(size_t n, MakeDriver make) {
  Fnv1a hash;
  for (uint64_t s = 0; s < 2000; ++s) {
    auto rec = make(/*seed=*/17 + 31 * s);
    rec.run_cycle();
    hash.add(rec.any_logical_error());
    hash.add(rec.cats_discarded());
    for (size_t q = 0; q < n; ++q) {
      hash.add(uint64_t{rec.frame().x_frame().get(q)} |
               uint64_t{rec.frame().z_frame().get(q)} << 1);
    }
  }
  return hash.value();
}

template <typename Driver>
uint64_t batch_fingerprint(Driver& rec, size_t n) {
  rec.run_cycle();
  Fnv1a hash;
  for (size_t shot = 0; shot < rec.num_shots(); ++shot) {
    hash.add(rec.any_logical_error(shot));
  }
  hash.add(rec.count_any_logical_error());
  hash.add(rec.cats_discarded());
  const sim::BatchFrameSim& frames = rec.frames();
  for (size_t w = 0; w < rec.num_words(); ++w) {
    for (size_t q = 0; q < n; ++q) {
      hash.add(frames.x_flips(q)[w]);
      hash.add(frames.z_flips(q)[w]);
    }
    hash.add(frames.abort_mask()[w]);
  }
  return hash.value();
}

TEST(ShorFingerprint, SteaneSerialShots) {
  const uint64_t expected[2] = {0x2659e6caa3391040ull,
                                 0x3f99f15db57e3accull};
  for (const bool biased : {false, true}) {
    const auto noise = fingerprint_noise(biased);
    EXPECT_EQ(serial_fingerprint(7,
                                 [&](uint64_t seed) {
                                   return GenericShorRecovery(
                                       codes::steane(), noise,
                                       RecoveryPolicy{}, seed);
                                 }),
              expected[biased])
        << (biased ? "biased" : "uniform");
  }
}

TEST(ShorFingerprint, SteaneBatchBlock) {
  const uint64_t expected[2] = {0x6f647839e02efc39ull,
                                 0xe9136b72672c61e3ull};
  for (const bool biased : {false, true}) {
    BatchGenericShorRecovery rec(codes::steane(), fingerprint_noise(biased),
                                 RecoveryPolicy{}, /*shots=*/4096,
                                 /*seed=*/23);
    EXPECT_EQ(batch_fingerprint(rec, 7), expected[biased])
        << (biased ? "biased" : "uniform");
  }
}

// The five-qubit code has no pure-Z generator and is not CSS, so its serial
// path is the one the generic driver always took.
TEST(ShorFingerprint, FiveQubitSerialShots) {
  const uint64_t expected[2] = {0x53e90100bce261e1ull,
                                 0x18c53e268df66487ull};
  for (const bool biased : {false, true}) {
    const auto noise = fingerprint_noise(biased);
    EXPECT_EQ(serial_fingerprint(5,
                                 [&](uint64_t seed) {
                                   return GenericShorRecovery(
                                       codes::five_qubit(), noise,
                                       RecoveryPolicy{}, seed);
                                 }),
              expected[biased])
        << (biased ? "biased" : "uniform");
  }
}

TEST(GenericShorRecovery, MixedGeneratorWidthUsesMatchingCatWidth) {
  // Five-qubit generators have weight 4: the cat register must be 4 wide.
  GenericShorRecovery rec(codes::five_qubit(), kNoiseless, RecoveryPolicy{}, 5);
  EXPECT_EQ(rec.frame().num_qubits(), 5u + 4u + 1u);
}

}  // namespace
}  // namespace ftqc::ft
