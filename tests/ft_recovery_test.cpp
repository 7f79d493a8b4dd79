#include <gtest/gtest.h>

#include "codes/library.h"
#include "common/stats.h"
#include "ft/fault_enumeration.h"
#include "ft/gadget_runner.h"
#include "ft/generic_recovery.h"
#include "ft/noise_injector.h"
#include "ft/steane_recovery.h"

namespace ftqc::ft {
namespace {

const sim::NoiseParams kNoiseless{};

RecoveryPolicy full_policy() { return RecoveryPolicy{}; }

// The conditional variant law under bias must stay a probability
// distribution over each location's variants, and collapse to the uniform
// §6 weights at fx = fy = fz = 1/3 (the weighted DEM build relies on both).
TEST(BiasedVariantWeight, NormalizedAndReducesToUniform) {
  const double fracs[][3] = {{1.0 / 3, 1.0 / 3, 1.0 / 3},
                             {0.5, 0.25, 0.25},
                             {1.0 / 102, 1.0 / 102, 100.0 / 102},
                             {0.9, 0.05, 0.05}};
  for (const LocationKind kind :
       {LocationKind::kGate1, LocationKind::kGate2, LocationKind::kStorage,
        LocationKind::kPrep, LocationKind::kMeas}) {
    for (const auto& f : fracs) {
      double sum = 0.0;
      for (int v = 0; v < location_variants(kind); ++v) {
        const double w = biased_variant_weight(kind, v, f[0], f[1], f[2]);
        EXPECT_GE(w, 0.0);
        sum += w;
      }
      EXPECT_NEAR(sum, 1.0, 1e-12)
          << "kind " << static_cast<int>(kind) << " fx=" << f[0];
    }
    for (int v = 0; v < location_variants(kind); ++v) {
      EXPECT_NEAR(
          biased_variant_weight(kind, v, 1.0 / 3, 1.0 / 3, 1.0 / 3),
          variant_weight(kind), 1e-12);
    }
  }
  // A pure-Z bias loads the Z variant of 1-qubit locations entirely.
  EXPECT_NEAR(biased_variant_weight(LocationKind::kGate1, 2, 0.0, 0.0, 1.0),
              1.0, 1e-12);
  EXPECT_NEAR(biased_variant_weight(LocationKind::kGate1, 0, 0.0, 0.0, 1.0),
              0.0, 1e-12);
}

TEST(SteaneRecovery, NoiselessCycleIsClean) {
  SteaneRecovery rec(kNoiseless, full_policy(), 1);
  rec.run_cycle();
  EXPECT_FALSE(rec.any_logical_error());
  EXPECT_EQ(rec.residual_x_weight(), 0u);
  EXPECT_EQ(rec.residual_z_weight(), 0u);
}

TEST(SteaneRecovery, CorrectsEverySingleDataError) {
  for (uint32_t q = 0; q < 7; ++q) {
    for (char pauli : {'X', 'Y', 'Z'}) {
      SteaneRecovery rec(kNoiseless, full_policy(), 10 + q);
      rec.inject_data(q, pauli);
      rec.run_cycle();
      EXPECT_FALSE(rec.any_logical_error())
          << pauli << " on qubit " << q << " not corrected";
      EXPECT_EQ(rec.residual_x_weight() + rec.residual_z_weight(), 0u)
          << pauli << " on qubit " << q << " left residual errors";
    }
  }
}

TEST(SteaneRecovery, TwoBitFlipsCauseLogicalError) {
  // The code only corrects one error: two X's in the block end up as a
  // logical X after recovery (Eq. 12).
  SteaneRecovery rec(kNoiseless, full_policy(), 21);
  rec.inject_data(1, 'X');
  rec.inject_data(4, 'X');
  rec.run_cycle();
  EXPECT_TRUE(rec.logical_x_error());
}

TEST(SteaneRecovery, MixedPairOnDistinctQubitsIsCorrected) {
  // One bit flip plus one phase flip on different qubits: recoverable (§2).
  SteaneRecovery rec(kNoiseless, full_policy(), 22);
  rec.inject_data(2, 'X');
  rec.inject_data(5, 'Z');
  rec.run_cycle();
  EXPECT_FALSE(rec.any_logical_error());
}

// Shor's cat-state recovery of the Steane block (§3.2-§3.4) is the
// code-generic driver on codes::steane(); its single-fault scan runs with
// the other library codes in ft_generic_recovery_test.cpp.
TEST(ShorRecovery, NoiselessCycleIsClean) {
  GenericShorRecovery rec(codes::steane(), kNoiseless, full_policy(), 2);
  rec.run_cycle();
  EXPECT_FALSE(rec.any_logical_error());
  EXPECT_EQ(rec.cats_discarded(), 0u);
}

TEST(ShorRecovery, CorrectsEverySingleDataError) {
  for (uint32_t q = 0; q < 7; ++q) {
    for (char pauli : {'X', 'Y', 'Z'}) {
      GenericShorRecovery rec(codes::steane(), kNoiseless, full_policy(),
                              30 + q);
      rec.inject_data(q, pauli);
      rec.run_cycle();
      EXPECT_FALSE(rec.any_logical_error())
          << pauli << " on qubit " << q << " not corrected";
    }
  }
}

// ---- The central fault-tolerance property (§3): no single fault anywhere
// ---- in the recovery circuit may leave the block with a logical error.

bool steane_cycle_fails_under(NoiseInjector& injector, uint64_t seed) {
  SteaneRecovery rec(kNoiseless, full_policy(), seed);
  rec.set_injector(&injector);
  rec.run_cycle();
  rec.set_injector(nullptr);
  return rec.any_logical_error();
}

TEST(FaultTolerance, SteaneRecoverySurvivesEverySingleFault) {
  const auto scan = scan_single_faults(
      [](NoiseInjector& injector) {
        return steane_cycle_fails_under(injector, 77);
      },
      all_kinds());
  EXPECT_GT(scan.num_locations, 100u);  // Fig. 9 is a real circuit
  EXPECT_GT(scan.faults_tried, 300u);
  EXPECT_EQ(scan.faults_failing, 0u)
      << "a single fault caused a logical error: not fault tolerant";
}

TEST(FaultTolerance, SteaneRecoveryLeavesAtMostOneErrorPerTypePerFault) {
  // Stronger property: a single fault leaves a residual correctable by the
  // next ideal recovery — at most one X and one Z on the data block, counted
  // modulo the stabilizer (frame patterns equal to a generator's support act
  // trivially on the code space).
  const auto scan = scan_single_faults(
      [](NoiseInjector& injector) {
        SteaneRecovery rec(kNoiseless, full_policy(), 78);
        rec.set_injector(&injector);
        rec.run_cycle();
        rec.set_injector(nullptr);
        return rec.residual_x_coset_weight() > 1 ||
               rec.residual_z_coset_weight() > 1;
      },
      all_kinds());
  EXPECT_EQ(scan.faults_failing, 0u)
      << "a single fault left two same-type errors in the block";
}

TEST(FaultTolerance, UnverifiedAncillaBreaksSingleFaultSafety) {
  // Switching §3.3 verification off must expose single-fault failures —
  // this is the paper's argument for why verification is necessary.
  RecoveryPolicy no_verify = full_policy();
  no_verify.verify_ancilla = false;
  const auto scan = scan_single_faults(
      [&no_verify](NoiseInjector& injector) {
        SteaneRecovery rec(kNoiseless, no_verify, 80);
        rec.set_injector(&injector);
        rec.run_cycle();
        rec.set_injector(nullptr);
        return rec.residual_x_coset_weight() > 1 ||
               rec.residual_z_coset_weight() > 1;
      },
      all_kinds());
  EXPECT_GT(scan.faults_failing, 0u)
      << "expected unverified ancillas to propagate multi-errors";
}

TEST(FaultTolerance, SingleSyndromeReadingRisksMiscorrection) {
  // §3.4: without repetition, one measurement fault plus the resulting
  // mis-correction leaves two errors... a single fault alone must still not
  // produce a LOGICAL error (it adds at most one wrong correction on top of
  // zero real errors), but it can leave the block with a nonzero residual
  // where the repeating protocol leaves none.
  RecoveryPolicy no_repeat = full_policy();
  no_repeat.repeat_nontrivial_syndrome = false;
  const auto scan_residual = scan_single_faults(
      [&no_repeat](NoiseInjector& injector) {
        SteaneRecovery rec(kNoiseless, no_repeat, 81);
        rec.set_injector(&injector);
        rec.run_cycle();
        rec.set_injector(nullptr);
        return rec.residual_x_coset_weight() + rec.residual_z_coset_weight() > 1;
      },
      all_kinds());
  const auto scan_repeat = scan_single_faults(
      [](NoiseInjector& injector) {
        SteaneRecovery rec(kNoiseless, full_policy(), 81);
        rec.set_injector(&injector);
        rec.run_cycle();
        rec.set_injector(nullptr);
        return rec.residual_x_coset_weight() + rec.residual_z_coset_weight() > 1;
      },
      all_kinds());
  // Repetition strictly reduces the single-fault residual-error exposure.
  EXPECT_LE(scan_repeat.weighted_failing, scan_residual.weighted_failing);
}

TEST(FaultEnumeration, RecorderCountsLocationsDeterministically) {
  FaultPointInjector rec1, rec2;
  steane_cycle_fails_under(rec1, 99);
  steane_cycle_fails_under(rec2, 99);
  EXPECT_EQ(rec1.num_locations(), rec2.num_locations());
  EXPECT_EQ(rec1.kinds().size(), rec1.num_locations());
}

// sim::add_noise and the gadget runners write the §6 location model
// separately; with every qubit active they must name the same locations.
// MR takes a measurement flip before it and a preparation fault after it.
TEST(FaultEnumeration, AddNoiseCompilesEveryLocationRunGadgetAnnounces) {
  sim::Circuit c(4);
  for (uint32_t q = 0; q < 4; ++q) c.r(q);
  c.tick();
  c.h(0);
  c.s(1);
  c.x(2);
  c.tick();
  c.cx(0, 1);
  c.cz(2, 3);
  c.tick();
  c.swap(1, 2);
  c.tick();
  c.m(0);
  c.mx(1);
  c.mr(2);
  c.tick();
  const auto params = sim::NoiseParams::uniform_gate(1e-3, /*eps_store=*/1e-3);
  const std::vector<uint32_t> all = {0, 1, 2, 3};
  sim::FrameSim frame(4);
  FaultPointInjector recorder;
  (void)run_gadget(frame, c, recorder, all);
  EXPECT_EQ(sim::count_fault_locations(sim::add_noise(c, params)),
            recorder.num_locations());
}

TEST(StochasticRecovery, LowNoiseRarelyFails) {
  const auto noise = sim::NoiseParams::uniform_gate(1e-4);
  Proportion failures;
  for (uint64_t shot = 0; shot < 2000; ++shot) {
    SteaneRecovery rec(noise, full_policy(), 1000 + shot);
    rec.run_cycle();
    failures.trials++;
    failures.successes += rec.any_logical_error();
  }
  // Failure is O(eps^2) ~ 1e-8-ish per cycle; 2000 shots should see none.
  EXPECT_EQ(failures.successes, 0u);
}

TEST(StochasticRecovery, MemoryChannelFidelityIsQuadratic) {
  // E1's core claim in miniature: with ideal recovery gadget (noiseless
  // gadget, noisy memory), the logical failure rate scales ~ c p².
  const double p1 = 0.02, p2 = 0.04;
  const size_t shots = 30000;
  auto failure_rate = [&](double p) {
    size_t fails = 0;
    for (uint64_t shot = 0; shot < shots; ++shot) {
      SteaneRecovery rec(kNoiseless, full_policy(), 5000 + shot);
      rec.apply_memory_noise(p);
      rec.run_cycle();
      fails += rec.any_logical_error();
    }
    return static_cast<double>(fails) / static_cast<double>(shots);
  };
  const double r1 = failure_rate(p1);
  const double r2 = failure_rate(p2);
  // Doubling p should roughly quadruple the failure rate.
  EXPECT_GT(r2 / r1, 2.5);
  EXPECT_LT(r2 / r1, 6.5);
}

// Herald-triggered ancilla reinit (the Fig. 15 detect-and-replace moved
// in-gadget): discarding heralded ancilla blocks must strictly beat
// feeding known-maximally-mixed qubits into syndrome extraction.
TEST(HeraldReinit, ReinitBeatsBlindUnderPureErasure) {
  sim::NoiseParams noise;
  noise.p_erase = 0.02;
  RecoveryPolicy blind;
  blind.herald_reinit = false;
  size_t reinit_fails = 0, blind_fails = 0;
  const uint64_t trials = 1500;
  for (uint64_t seed = 1; seed <= trials; ++seed) {
    SteaneRecovery with(noise, full_policy(), seed);
    with.run_cycle();
    reinit_fails += with.any_logical_error() ? 1 : 0;
    SteaneRecovery without(noise, blind, seed);
    without.run_cycle();
    blind_fails += without.any_logical_error() ? 1 : 0;
  }
  EXPECT_LT(reinit_fails, blind_fails)
      << "reinit " << reinit_fails << " vs blind " << blind_fails;
}

// An exhausted re-preparation budget keeps the last block and proceeds —
// certain erasure must not hang the retry loop or crash the cycle.
TEST(HeraldReinit, ExhaustedBudgetTerminatesAndProceeds) {
  sim::NoiseParams noise;
  noise.p_erase = 1.0;
  SteaneRecovery rec(noise, full_policy(), 3);
  rec.run_cycle();
  GenericShorRecovery shor(codes::steane(), noise, full_policy(), 4);
  shor.run_cycle();
}

}  // namespace
}  // namespace ftqc::ft
