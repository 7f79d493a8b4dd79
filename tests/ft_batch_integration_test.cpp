// Batch-vs-serial pins for the level-2 exRec cycle and the cat-retry
// recovery paths: (a) noiseless injected-error patterns must decode
// bit-for-bit identically on every lane, for both level-2 disciplines and
// the cat-retry drivers on the Steane and five-qubit codes; (b) stochastic
// failure counts over >= 4k shots must pass a two-sample z-test at a stated
// false-failure rate, after one cycle on a clean block and after several
// cycles with memory noise, which only a working correction survives; (c)
// the batched retry loop's cap-exhaustion edge case must surface in the
// abort mask instead of silently passing as verified; (d) recorded level-2
// block fingerprints hold.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "batch_pins.h"
#include "codes/library.h"
#include "fnv1a.h"
#include "ft/batch_level2.h"
#include "ft/batch_recovery.h"
#include "ft/batch_shor.h"
#include "ft/concatenated_recovery.h"
#include "ft/generic_recovery.h"
#include "ft/steane_recovery.h"
#include "sim/noise_model.h"
#include "threshold/pseudothreshold.h"

namespace ftqc::ft {
namespace {

const sim::NoiseParams kNoiseless;

RecoveryPolicy policy_for(Level2Discipline discipline,
                          bool data_recoveries = false) {
  RecoveryPolicy policy;
  policy.level2_discipline = discipline;
  policy.exrec_data_recoveries = data_recoveries;
  return policy;
}

// Noiseless cycles are deterministic (gauge draws never touch the data
// block), so every lane must agree with a serial reference run.
void expect_level2_matches_serial(const RecoveryPolicy& policy,
                                  const std::vector<std::pair<uint32_t, char>>&
                                      injections) {
  Level2Recovery serial(kNoiseless, policy, /*seed=*/1);
  for (const auto& [q, p] : injections) serial.inject_data(q, p);
  serial.run_cycle();

  BatchLevel2Recovery batch(kNoiseless, policy, /*shots=*/128, /*seed=*/77);
  for (const auto& [q, p] : injections) batch.inject_data(q, p);
  batch.run_cycle();

  for (size_t shot : {size_t{0}, size_t{63}, size_t{64}, size_t{127}}) {
    EXPECT_EQ(batch.logical_x_error(shot), serial.logical_x_error())
        << "shot " << shot;
    EXPECT_EQ(batch.logical_z_error(shot), serial.logical_z_error())
        << "shot " << shot;
  }
  const uint64_t expected = serial.any_logical_error() ? batch.num_shots() : 0u;
  EXPECT_EQ(batch.count_any_logical_error(), expected);
}

TEST(BatchLevel2Pins, NoiselessPatternsMatchSerialBareDiscipline) {
  const auto policy = policy_for(Level2Discipline::kBare);
  for (const char pauli : {'X', 'Z'}) {
    // Single errors across subblocks; the hierarchy must clean all of them.
    for (uint32_t q : {0u, 6u, 7u, 24u, 48u}) {
      expect_level2_matches_serial(policy, {{q, pauli}});
    }
  }
  // Pairs within one subblock (level-1 miscorrection -> level-2 catches)
  // and across subblocks (the §5 failure channel).
  expect_level2_matches_serial(policy, {{0, 'X'}, {1, 'X'}});
  expect_level2_matches_serial(policy, {{0, 'Z'}, {1, 'Z'}});
  expect_level2_matches_serial(policy, {{3, 'X'}, {10, 'X'}});
  expect_level2_matches_serial(policy, {{5, 'Z'}, {47, 'Z'}});
  expect_level2_matches_serial(policy, {{2, 'X'}, {2, 'Z'}});
  expect_level2_matches_serial(
      policy, {{0, 'X'}, {1, 'X'}, {7, 'X'}, {8, 'X'}, {14, 'X'}, {15, 'X'}});
}

TEST(BatchLevel2Pins, NoiselessPatternsMatchSerialExRecDiscipline) {
  const auto policy = policy_for(Level2Discipline::kExRec);
  for (const char pauli : {'X', 'Z'}) {
    for (uint32_t q : {0u, 7u, 30u, 48u}) {
      expect_level2_matches_serial(policy, {{q, pauli}});
    }
  }
  expect_level2_matches_serial(policy, {{0, 'X'}, {1, 'X'}});
  expect_level2_matches_serial(policy, {{5, 'Z'}, {47, 'Z'}});
  expect_level2_matches_serial(policy, {{12, 'X'}, {12, 'Z'}});
}

TEST(BatchLevel2Pins, NoiselessPatternsMatchSerialExRecDataRecoveries) {
  const auto policy = policy_for(Level2Discipline::kExRec,
                                 /*data_recoveries=*/true);
  for (uint32_t q : {0u, 20u, 48u}) {
    expect_level2_matches_serial(policy, {{q, 'X'}});
    expect_level2_matches_serial(policy, {{q, 'Z'}});
  }
  expect_level2_matches_serial(policy, {{0, 'X'}, {8, 'X'}});
}

// Deterministic noise: every one-qubit gate (the preparations' Hadamards,
// the fixes) takes a Z error with certainty and nothing else is noisy, so
// every lane replays the serial shot exactly. The corrections' fault
// opportunities must then go through the channel hooks, bias included, as
// the serial fix gadget's do.
TEST(BatchLevel2Pins, DeterministicZNoiseMatchesSerialLaneByLane) {
  sim::NoiseParams z_noise;
  z_noise.eps_gate1 = 1.0;
  z_noise.bias_x = 0.0;
  z_noise.bias_y = 0.0;
  for (const auto discipline :
       {Level2Discipline::kBare, Level2Discipline::kExRec}) {
    for (const bool inject : {false, true}) {
      const auto policy = policy_for(discipline);
      Level2Recovery serial(z_noise, policy, /*seed=*/1);
      BatchLevel2Recovery batch(z_noise, policy, /*shots=*/128, /*seed=*/77);
      if (inject) {
        serial.inject_data(10, 'X');
        batch.inject_data(10, 'X');
      }
      serial.run_cycle();
      batch.run_cycle();
      size_t lanes_differing = 0;
      for (size_t shot = 0; shot < batch.num_shots(); ++shot) {
        bool differs = false;
        for (uint32_t q = 0; q < BatchLevel2Recovery::kBlock; ++q) {
          differs = differs ||
                    batch.frames().x_flip(q, shot) !=
                        serial.frame().x_frame().get(q) ||
                    batch.frames().z_flip(q, shot) !=
                        serial.frame().z_frame().get(q);
        }
        lanes_differing += differs ? 1 : 0;
      }
      EXPECT_EQ(lanes_differing, 0u)
          << (discipline == Level2Discipline::kBare ? "bare" : "exRec")
          << (inject ? " with X10" : "");
    }
  }
}

void expect_level2_statistics_match(Level2Discipline discipline, double eps,
                                    size_t shots, uint64_t serial_seed,
                                    uint64_t batch_seed) {
  const auto noise = sim::NoiseParams::uniform_gate(eps);
  const auto policy = policy_for(discipline);
  size_t serial_failures = 0;
  for (size_t s = 0; s < shots; ++s) {
    Level2Recovery rec(noise, policy, serial_seed + 11 * s);
    rec.run_cycle();
    serial_failures += rec.any_logical_error() ? 1 : 0;
  }
  BatchLevel2Recovery batch(noise, policy, shots, batch_seed);
  batch.run_cycle();
  // The point is alive at this eps.
  EXPECT_GT(static_cast<double>(serial_failures), 0.01 * shots);
  expect_counts_agree(serial_failures, batch.count_any_logical_error(shots),
                      shots);
}

TEST(BatchLevel2Pins, FailureRateMatchesSerialBare) {
  expect_level2_statistics_match(Level2Discipline::kBare, 4e-3, 4096,
                                 /*serial_seed=*/3, /*batch_seed=*/41);
}

TEST(BatchLevel2Pins, FailureRateMatchesSerialExRec) {
  expect_level2_statistics_match(Level2Discipline::kExRec, 4e-3, 4096,
                                 /*serial_seed=*/5, /*batch_seed=*/37);
}

// --- Shor cat-retry path ----------------------------------------------------
//
// Shor's cat-state recovery of the Steane block is the code-generic driver
// pair on codes::steane().

void expect_shor_matches_serial(const std::vector<std::pair<uint32_t, char>>&
                                    injections) {
  GenericShorRecovery serial(codes::steane(), kNoiseless, RecoveryPolicy{},
                             /*seed=*/1);
  for (const auto& [q, p] : injections) serial.inject_data(q, p);
  serial.run_cycle();

  BatchGenericShorRecovery batch(codes::steane(), kNoiseless,
                                 RecoveryPolicy{}, /*shots=*/128,
                                 /*seed=*/77);
  for (const auto& [q, p] : injections) batch.inject_data(q, p);
  batch.run_cycle();

  EXPECT_EQ(batch.cats_discarded(), 0u);
  EXPECT_EQ(batch.count_retry_exhausted(), 0u);
  for (size_t shot : {size_t{0}, size_t{63}, size_t{64}, size_t{127}}) {
    EXPECT_EQ(batch.residual(shot), serial.residual()) << "shot " << shot;
    EXPECT_EQ(batch.any_logical_error(shot), serial.any_logical_error())
        << "shot " << shot;
  }
  const uint64_t expected = serial.any_logical_error() ? batch.num_shots() : 0u;
  EXPECT_EQ(batch.count_any_logical_error(), expected);
}

TEST(BatchShorPins, NoiselessPatternsMatchSerial) {
  for (const char pauli : {'X', 'Y', 'Z'}) {
    for (uint32_t q = 0; q < 7; ++q) {
      expect_shor_matches_serial({{q, pauli}});
    }
  }
  for (uint32_t qa = 0; qa < 7; ++qa) {
    for (uint32_t qb = qa + 1; qb < 7; ++qb) {
      expect_shor_matches_serial({{qa, 'X'}, {qb, 'X'}});
      expect_shor_matches_serial({{qa, 'Z'}, {qb, 'Z'}});
      expect_shor_matches_serial({{qa, 'X'}, {qb, 'Z'}});
    }
  }
}

// The threshold driver dispatches kShor to the generic pair on the Steane
// code; the two engines must agree statistically through the shared path.
TEST(BatchShorPins, FailureRateMatchesSerialEngine) {
  const double eps = 8e-3;
  const size_t shots = 4096;
  const auto serial = threshold::measure_cycle_failure(
      threshold::RecoveryMethod::kShor, eps, shots, /*seed=*/3, 0.0,
      sim::ShotEngine::kFrame);
  const auto batch = threshold::measure_cycle_failure(
      threshold::RecoveryMethod::kShor, eps, shots, /*seed=*/83, 0.0,
      sim::ShotEngine::kBatch);
  EXPECT_GT(serial.failures.mean(), 0.005);  // the point is alive at this eps
  expect_counts_agree(serial.failures.successes, batch.failures.successes,
                      shots);
}

// Regression for the retry-cap edge case: with every cat verification
// forced to fail (measurement error probability 1 flips the check readout
// on every attempt), lanes must surface in the abort/postselection mask —
// not silently pass as verified.
TEST(BatchShorPins, RetryCapExhaustionSurfacesInAbortMask) {
  sim::NoiseParams always_fail;
  always_fail.eps_meas = 1.0;
  RecoveryPolicy policy;
  BatchGenericShorRecovery rec(codes::steane(), always_fail, policy,
                               /*shots=*/128, /*seed=*/5);
  rec.run_cycle();
  EXPECT_EQ(rec.count_retry_exhausted(), rec.num_shots());
  EXPECT_EQ(rec.frames().num_kept(), 0u);
  // Every lane burned the full retry budget on every cat preparation: 6
  // generator measurements (+ repeats) x max_cat_attempts discards/lane.
  EXPECT_GE(rec.cats_discarded(),
            static_cast<uint64_t>(policy.max_cat_attempts) * 6 *
                rec.num_shots());
}

TEST(BatchShorPins, RetryLoopDiscardStatisticsMatchSerial) {
  // At a noise level where discards are common, the summed discard counter
  // must agree with the serial loop's within a few standard errors.
  const auto noise = sim::NoiseParams::uniform_gate(0.02);
  const size_t shots = 2048;
  uint64_t serial_discards = 0;
  for (size_t s = 0; s < shots; ++s) {
    GenericShorRecovery rec(codes::steane(), noise, RecoveryPolicy{},
                            100 + 7 * s);
    rec.run_cycle();
    serial_discards += rec.cats_discarded();
  }
  BatchGenericShorRecovery batch(codes::steane(), noise, RecoveryPolicy{},
                                 shots, /*seed=*/42);
  batch.run_cycle();
  const double per_shot_serial =
      static_cast<double>(serial_discards) / static_cast<double>(shots);
  const double per_shot_batch = static_cast<double>(batch.cats_discarded()) /
                                static_cast<double>(shots);
  EXPECT_GT(per_shot_serial, 0.1);
  EXPECT_NEAR(per_shot_batch, per_shot_serial, 0.25 * per_shot_serial);
}

// --- Generic (arbitrary stabilizer code) cat-retry path ---------------------

void expect_generic_matches_serial(const codes::StabilizerCode& code,
                                   uint32_t q, char pauli) {
  GenericShorRecovery serial(code, kNoiseless, RecoveryPolicy{}, /*seed=*/3);
  serial.inject_data(q, pauli);
  serial.run_cycle();

  BatchGenericShorRecovery batch(code, kNoiseless, RecoveryPolicy{},
                                 /*shots=*/128, /*seed=*/77);
  batch.inject_data(q, pauli);
  batch.run_cycle();

  for (size_t shot : {size_t{0}, size_t{63}, size_t{64}, size_t{127}}) {
    EXPECT_EQ(batch.any_logical_error(shot), serial.any_logical_error())
        << code.n() << "-qubit code, " << pauli << q << " shot " << shot;
  }
}

TEST(BatchGenericPins, NoiselessSingleErrorsMatchSerialOnLibraryCodes) {
  for (const auto* code : {&codes::five_qubit(), &codes::steane()}) {
    for (uint32_t q = 0; q < code->n(); ++q) {
      for (const char pauli : {'X', 'Y', 'Z'}) {
        expect_generic_matches_serial(*code, q, pauli);
      }
    }
  }
}

TEST(BatchGenericPins, NoiselessCycleCleanAndDeterministic) {
  const auto& code = codes::hamming15();
  BatchGenericShorRecovery a(code, kNoiseless, RecoveryPolicy{}, 128, 9);
  BatchGenericShorRecovery b(code, kNoiseless, RecoveryPolicy{}, 128, 9);
  a.run_cycle();
  b.run_cycle();
  EXPECT_EQ(a.count_any_logical_error(), 0u);
  for (size_t shot = 0; shot < a.num_shots(); ++shot) {
    ASSERT_EQ(a.any_logical_error(shot), b.any_logical_error(shot)) << shot;
  }
}

TEST(BatchGenericPins, FailureRateMatchesSerialOnFiveQubitCode) {
  const auto& code = codes::five_qubit();
  const auto noise = sim::NoiseParams::uniform_gate(8e-3);
  const size_t shots = 4096;
  size_t serial_failures = 0;
  for (size_t s = 0; s < shots; ++s) {
    GenericShorRecovery rec(code, noise, RecoveryPolicy{}, 1000 + 13 * s);
    rec.run_cycle();
    serial_failures += rec.any_logical_error() ? 1 : 0;
  }
  BatchGenericShorRecovery batch(code, noise, RecoveryPolicy{}, shots,
                                 /*seed=*/29);
  batch.run_cycle();
  EXPECT_GT(static_cast<double>(serial_failures), 0.005 * shots);
  expect_counts_agree(serial_failures, batch.count_any_logical_error(shots),
                      shots);
}


// --- Recorded level-2 fingerprints -------------------------------------------
//
// Per-lane verdicts, data frames and the abort mask of one 1,024-lane block
// under uniform gate noise, for both disciplines. Recorded before the
// level-2 circuit tables were shared between the engines and before the
// batch correction was routed through the channel hooks; at uniform noise
// neither may change a draw.

uint64_t level2_block_fingerprint(Level2Discipline discipline) {
  BatchLevel2Recovery rec(sim::NoiseParams::uniform_gate(4e-3),
                          policy_for(discipline), /*shots=*/1024,
                          /*seed=*/13);
  rec.run_cycle();
  Fnv1a hash;
  for (size_t shot = 0; shot < rec.num_shots(); ++shot) {
    hash.add(uint64_t{rec.logical_x_error(shot)} |
             uint64_t{rec.logical_z_error(shot)} << 1);
  }
  hash.add(rec.count_any_logical_error());
  const sim::BatchFrameSim& frames = rec.frames();
  for (size_t w = 0; w < rec.num_words(); ++w) {
    for (uint32_t q = 0; q < BatchLevel2Recovery::kBlock; ++q) {
      hash.add(frames.x_flips(q)[w]);
      hash.add(frames.z_flips(q)[w]);
    }
    hash.add(frames.abort_mask()[w]);
  }
  return hash.value();
}

TEST(BatchLevel2Pins, BareBlockMatchesRecordedFingerprint) {
  EXPECT_EQ(level2_block_fingerprint(Level2Discipline::kBare),
            0x74027bfae2bf8295ull);
}

TEST(BatchLevel2Pins, ExRecBlockMatchesRecordedFingerprint) {
  EXPECT_EQ(level2_block_fingerprint(Level2Discipline::kExRec),
            0x5af2911ad88af287ull);
}

// --- Pins that see the correction -------------------------------------------
//
// Several cycles, each after memory noise on the data block of both engines
// (see expect_memory_cycles_agree).

TEST(MemoryCyclePins, SteaneMatchesSerial) {
  const auto noise = sim::NoiseParams::uniform_gate(2e-3);
  SteaneRecovery serial(noise, RecoveryPolicy{}, /*seed=*/7);
  BatchSteaneRecovery batch(noise, RecoveryPolicy{}, /*shots=*/8192,
                            /*seed=*/71);
  expect_memory_cycles_agree(serial, batch, /*cycles=*/3, /*p=*/0.03);
}

TEST(MemoryCyclePins, ShorOnSteaneMatchesSerial) {
  const auto noise = sim::NoiseParams::uniform_gate(2e-3);
  GenericShorRecovery serial(codes::steane(), noise, RecoveryPolicy{},
                             /*seed=*/9);
  BatchGenericShorRecovery batch(codes::steane(), noise, RecoveryPolicy{},
                                 /*shots=*/8192, /*seed=*/73);
  expect_memory_cycles_agree(serial, batch, /*cycles=*/3, /*p=*/0.03);
}

TEST(MemoryCyclePins, FiveQubitGenericMatchesSerial) {
  const auto noise = sim::NoiseParams::uniform_gate(2e-3);
  GenericShorRecovery serial(codes::five_qubit(), noise, RecoveryPolicy{},
                             /*seed=*/11);
  BatchGenericShorRecovery batch(codes::five_qubit(), noise,
                                 RecoveryPolicy{}, /*shots=*/8192,
                                 /*seed=*/79);
  expect_memory_cycles_agree(serial, batch, /*cycles=*/3, /*p=*/0.03);
}

TEST(MemoryCyclePins, Level2BareMatchesSerial) {
  // Level-2 bare fails often at 2e-3 on its own, which would drown the
  // correction's share; at 5e-4 skipping it doubles the failure count.
  const auto noise = sim::NoiseParams::uniform_gate(5e-4);
  const auto policy = policy_for(Level2Discipline::kBare);
  Level2Recovery serial(noise, policy, /*seed=*/13);
  BatchLevel2Recovery batch(noise, policy, /*shots=*/4096, /*seed=*/83);
  expect_memory_cycles_agree(serial, batch, /*cycles=*/3, /*p=*/0.03);
}

}  // namespace
}  // namespace ftqc::ft
