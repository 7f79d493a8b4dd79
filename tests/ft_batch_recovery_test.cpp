// BatchSteaneRecovery vs the serial SteaneRecovery: the bit-parallel
// recovery cycle must (a) reproduce the serial engine's deterministic
// outcomes exactly for injected error patterns under noiseless execution,
// and (b) match its failure statistics under the stochastic §6 model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "codes/library.h"
#include "common/errors.h"
#include "fnv1a.h"
#include "ft/batch_level2.h"
#include "ft/batch_recovery.h"
#include "ft/batch_shor.h"
#include "ft/gadget_runner.h"
#include "ft/noise_injector.h"
#include "ft/steane_recovery.h"
#include "sim/noise_model.h"
#include "threshold/pseudothreshold.h"
#include "universal/batch_flag_recovery.h"

namespace ftqc::ft {
namespace {

const sim::NoiseParams kNoiseless;

// Noiseless cycles are deterministic (gauge draws never touch the data
// block), so every lane must agree with a serial reference run.
void expect_matches_serial(const char paulis[2], uint32_t qa, uint32_t qb) {
  SteaneRecovery serial(kNoiseless, RecoveryPolicy{}, /*seed=*/1);
  serial.inject_data(qa, paulis[0]);
  serial.inject_data(qb, paulis[1]);
  serial.run_cycle();

  BatchSteaneRecovery batch(kNoiseless, RecoveryPolicy{}, /*shots=*/128,
                            /*seed=*/77);
  batch.inject_data(qa, paulis[0]);
  batch.inject_data(qb, paulis[1]);
  batch.run_cycle();

  for (size_t shot : {size_t{0}, size_t{63}, size_t{64}, size_t{127}}) {
    EXPECT_EQ(batch.logical_x_error(shot), serial.logical_x_error())
        << paulis[0] << qa << " " << paulis[1] << qb << " shot " << shot;
    EXPECT_EQ(batch.logical_z_error(shot), serial.logical_z_error())
        << paulis[0] << qa << " " << paulis[1] << qb << " shot " << shot;
  }
  const uint64_t expected =
      serial.any_logical_error() ? batch.num_shots() : 0u;
  EXPECT_EQ(batch.count_any_logical_error(), expected);
}

TEST(BatchRecovery, CorrectsEverySingleError) {
  for (const char pauli : {'X', 'Y', 'Z'}) {
    for (uint32_t q = 0; q < 7; ++q) {
      BatchSteaneRecovery rec(kNoiseless, RecoveryPolicy{}, 64, /*seed=*/5);
      rec.inject_data(q, pauli);
      rec.run_cycle();
      EXPECT_EQ(rec.count_residual(), 0u) << pauli << q;
      EXPECT_EQ(rec.count_any_logical_error(), 0u) << pauli << q;
    }
  }
}

TEST(BatchRecovery, TwoErrorOutcomeMatchesSerial) {
  for (uint32_t qa = 0; qa < 7; ++qa) {
    for (uint32_t qb = qa + 1; qb < 7; ++qb) {
      expect_matches_serial("XX", qa, qb);
      expect_matches_serial("ZZ", qa, qb);
      expect_matches_serial("XZ", qa, qb);
    }
  }
}

TEST(BatchRecovery, LogicalImpliesResidualAndAccessorsAgree) {
  const auto noise = sim::NoiseParams::uniform_gate(8e-3);
  BatchSteaneRecovery rec(noise, RecoveryPolicy{}, 64 * 32, /*seed=*/31);
  rec.run_cycle();
  uint64_t per_shot_logical = 0;
  for (size_t shot = 0; shot < rec.num_shots(); ++shot) {
    per_shot_logical += rec.any_logical_error(shot) ? 1 : 0;
  }
  EXPECT_EQ(rec.count_any_logical_error(), per_shot_logical);
  EXPECT_LE(rec.count_any_logical_error(), rec.count_residual());
  // Lane-limited counting only sees the front of the register.
  EXPECT_LE(rec.count_any_logical_error(64), rec.count_any_logical_error());
}

// Stochastic agreement with the serial engine, via the shared threshold
// driver: both estimates target the same failure probability, so their
// difference should be a few combined standard errors at most (the bound
// here is ~5 sigma; a semantics bug shows up as tens of sigma).
TEST(BatchRecovery, FailureRateMatchesSerialEngine) {
  const double eps = 8e-3;
  const size_t shots = 6000;
  const auto serial = threshold::measure_cycle_failure(
      threshold::RecoveryMethod::kSteane, eps, shots, /*seed=*/3, 0.0,
      sim::ShotEngine::kFrame);
  const auto batch = threshold::measure_cycle_failure(
      threshold::RecoveryMethod::kSteane, eps, shots, /*seed=*/19, 0.0,
      sim::ShotEngine::kBatch);
  const double pf = serial.failures.mean();
  const double pb = batch.failures.mean();
  EXPECT_GT(pf, 0.02);  // the point is alive at this eps
  const double se = std::sqrt(pf * (1 - pf) / shots + pb * (1 - pb) / shots);
  EXPECT_LT(std::fabs(pf - pb), 5.0 * se)
      << "frame " << pf << " vs batch " << pb;
}

// Under measurement error alone, §3.4 says acting on a single nontrivial
// syndrome miscorrects at O(eps_meas) while the repeat policy defers; the
// batch engine must reproduce that separation.
TEST(BatchRecovery, MeasurementOnlyNoiseRepeatPolicySeparation) {
  const auto noise = sim::NoiseParams::measurement_only(0.02);
  const size_t shots = 64 * 64;

  RecoveryPolicy once;
  once.repeat_nontrivial_syndrome = false;
  BatchSteaneRecovery rec_once(noise, once, shots, /*seed=*/7);
  rec_once.run_cycle();

  BatchSteaneRecovery rec_repeat(noise, RecoveryPolicy{}, shots, /*seed=*/9);
  rec_repeat.run_cycle();

  const double p_once =
      static_cast<double>(rec_once.count_residual()) / shots;
  const double p_repeat =
      static_cast<double>(rec_repeat.count_residual()) / shots;
  EXPECT_GT(p_once, 0.1);     // ~0.25 expected: O(eps_meas) miscorrections
  EXPECT_LT(p_repeat, 0.05);  // ~4e-3 expected: demoted to O(eps_meas^2)
}

TEST(BatchRecovery, SeedDeterminism) {
  const auto noise = sim::NoiseParams::uniform_gate(5e-3);
  BatchSteaneRecovery a(noise, RecoveryPolicy{}, 256, /*seed=*/123);
  BatchSteaneRecovery b(noise, RecoveryPolicy{}, 256, /*seed=*/123);
  a.run_cycle();
  b.run_cycle();
  for (size_t shot = 0; shot < a.num_shots(); ++shot) {
    ASSERT_EQ(a.logical_x_error(shot), b.logical_x_error(shot)) << shot;
    ASSERT_EQ(a.logical_z_error(shot), b.logical_z_error(shot)) << shot;
  }
  EXPECT_EQ(a.count_residual(), b.count_residual());
}

// Heralded erasure rides the same pinned channel layer in both engines
// (see ErasureBoundary.HeraldPlanesPinnedFrameVsBatch for the bit-level
// pin); at the recovery level the engines draw independent streams, so
// their failure estimates must agree statistically.
TEST(BatchRecovery, HeraldedErasureFailureRateMatchesSerial) {
  const auto noise = sim::NoiseParams::with_erasure(6e-3, /*p_erase=*/0.01);
  const size_t shots = 4000;
  size_t serial_fails = 0;
  for (uint64_t seed = 1; seed <= shots; ++seed) {
    SteaneRecovery rec(noise, RecoveryPolicy{}, seed);
    rec.run_cycle();
    serial_fails += rec.any_logical_error() ? 1 : 0;
  }
  BatchSteaneRecovery batch(noise, RecoveryPolicy{}, shots, /*seed=*/417);
  batch.run_cycle();
  const double pf = static_cast<double>(serial_fails) / shots;
  const double pb =
      static_cast<double>(batch.count_any_logical_error()) / shots;
  EXPECT_GT(pf, 0.005);  // the point is alive under this channel
  const double se = std::sqrt(pf * (1 - pf) / shots + pb * (1 - pb) / shots);
  EXPECT_LT(std::fabs(pf - pb), 5.0 * se)
      << "frame " << pf << " vs batch " << pb;
}

// The herald-reinit path, pinned draw for draw: per-lane verdicts, data
// frames, data heralds and the abort mask of one 4,096-lane block under
// gate noise with heralded erasure, where ~a quarter of the ancilla
// preparations herald and a few lanes exhaust their retry budget. The
// constant was recorded while the reinit had its own retry loop, before it
// moved onto BatchCatRetry.
TEST(BatchRecovery, HeraldReinitMatchesRecordedFingerprint) {
  BatchSteaneRecovery rec(sim::NoiseParams::with_erasure(6e-3, 0.01),
                          RecoveryPolicy{}, /*shots=*/4096, /*seed=*/29);
  rec.run_cycle();
  Fnv1a hash;
  for (size_t shot = 0; shot < rec.num_shots(); ++shot) {
    hash.add(uint64_t{rec.logical_x_error(shot)} |
             uint64_t{rec.logical_z_error(shot)} << 1);
  }
  const sim::BatchFrameSim& frames = rec.frames();
  for (size_t w = 0; w < rec.num_words(); ++w) {
    for (uint32_t q = 0; q < 7; ++q) {
      hash.add(frames.x_flips(q)[w]);
      hash.add(frames.z_flips(q)[w]);
      hash.add(frames.herald_word(q)[w]);
    }
    hash.add(frames.abort_mask()[w]);
  }
  EXPECT_GT(rec.frames().num_kept(), 0u);
  EXPECT_LT(rec.frames().num_kept(), rec.num_shots());
  EXPECT_EQ(hash.value(), 0x84351cedc6375875ull);
}

// Exhausted herald-retry lanes surface through the abort-mask contract:
// under certain erasure every re-preparation heralds again, so every lane
// must end up discarded — and none when heralds are ignored.
TEST(BatchRecovery, HeraldExhaustionSurfacesAbortMask) {
  sim::NoiseParams noise;
  noise.p_erase = 1.0;
  BatchSteaneRecovery rec(noise, RecoveryPolicy{}, 128, /*seed=*/5);
  rec.run_cycle();
  for (size_t shot = 0; shot < rec.num_shots(); ++shot) {
    ASSERT_TRUE(rec.frames().aborted(shot)) << shot;
  }
  RecoveryPolicy blind;
  blind.herald_reinit = false;
  BatchSteaneRecovery ignore(noise, blind, 128, /*seed=*/5);
  ignore.run_cycle();
  for (size_t shot = 0; shot < ignore.num_shots(); ++shot) {
    ASSERT_FALSE(ignore.frames().aborted(shot)) << shot;
  }
}

// A retry budget without one attempt would run no preparation at all (the
// batch loop then aborted every lane); both lane engines reject it.
TEST(BatchRecovery, RetryBudgetWithoutAnAttemptDies) {
  RecoveryPolicy no_reinit_attempt;
  no_reinit_attempt.max_herald_retries = -1;
  const auto erasure = sim::NoiseParams::with_erasure(1e-3, 1e-2);
  EXPECT_DEATH(SteaneRecovery(erasure, no_reinit_attempt, 1).run_cycle(),
               "at least one attempt");
  EXPECT_DEATH(
      BatchSteaneRecovery(erasure, no_reinit_attempt, 64, 1).run_cycle(),
      "at least one attempt");
  RecoveryPolicy no_cat_attempt;
  no_cat_attempt.max_cat_attempts = 0;
  EXPECT_DEATH(GenericShorRecovery(codes::steane(), kNoiseless,
                                   no_cat_attempt, 1)
                   .run_cycle(),
               "at least one attempt");
  EXPECT_DEATH(BatchGenericShorRecovery(codes::steane(), kNoiseless,
                                        no_cat_attempt, 64, 1)
                   .run_cycle(),
               "at least one attempt");
}

// Leakage has no bit-parallel form: every batch family must degrade
// gracefully with a structured UnsupportedChannel naming its serial
// fallback, not die mid-campaign.
TEST(BatchRecovery, RejectsLeakageWithStructuredError) {
  sim::NoiseParams noise;
  noise.p_leak = 1e-3;
  try {
    BatchSteaneRecovery reject(noise, RecoveryPolicy{}, 64, 1);
    FAIL() << "p_leak > 0 must throw UnsupportedChannel";
  } catch (const UnsupportedChannel& e) {
    EXPECT_EQ(e.engine(), "BatchSteaneRecovery");
    EXPECT_EQ(e.channel(), "p_leak > 0");
    EXPECT_EQ(e.fallback(), "SteaneRecovery");
    EXPECT_NE(std::string(e.what()).find("SteaneRecovery"),
              std::string::npos);
  }
  EXPECT_THROW(BatchGenericShorRecovery(codes::five_qubit(), noise,
                                        RecoveryPolicy{}, 64, 1),
               UnsupportedChannel);
  EXPECT_THROW(BatchLevel2Recovery(noise, RecoveryPolicy{}, 64, 1),
               UnsupportedChannel);
  EXPECT_THROW(universal::BatchFlagRecovery(codes::steane(), noise,
                                            RecoveryPolicy{}, 64, 1),
               UnsupportedChannel);
}

// Storage noise lands on the active qubits that rest through a layer, on
// the masked lanes only; at eps_store = 0 the runner skips those locations
// without touching a frame or a draw. Two layers: q0 rests in the second,
// q1 in the first, q2 works in both, and q3 is outside the active set.
TEST(BatchGadgetRunner, StorageNoiseHitsRestingActiveQubitsOnMaskedLanes) {
  sim::Circuit layers(4);
  layers.h(0);
  layers.h(2);
  layers.tick();
  layers.h(1);
  layers.h(2);
  layers.tick();
  const std::vector<uint32_t> active = {0, 1, 2};
  const std::vector<uint64_t> lanes = {0x5555555555555555ull, 0,
                                       ~uint64_t{0}};
  constexpr uint64_t kSeed = 31;

  sim::NoiseParams storage_only;
  storage_only.eps_store = 1.0;  // every masked lane takes a Pauli
  sim::BatchFrameSim noisy(4, 3 * 64, kSeed);
  BatchGadgetRunner(noisy, storage_only).run(layers, active, lanes.data());
  for (size_t shot = 0; shot < noisy.num_shots(); ++shot) {
    const bool masked = (lanes[shot >> 6] >> (shot & 63)) & 1u;
    for (uint32_t q = 0; q < 4; ++q) {
      const bool flipped = noisy.x_flip(q, shot) || noisy.z_flip(q, shot);
      EXPECT_EQ(flipped, masked && q < 2) << "qubit " << q << " shot " << shot;
    }
  }

  sim::BatchFrameSim quiet(4, 3 * 64, kSeed), untouched(4, 3 * 64, kSeed);
  BatchGadgetRunner(quiet, kNoiseless).run(layers, active, lanes.data());
  for (uint32_t q = 0; q < 4; ++q) {
    for (size_t w = 0; w < quiet.num_words(); ++w) {
      EXPECT_EQ(quiet.x_flips(q)[w], 0u) << "qubit " << q << " word " << w;
      EXPECT_EQ(quiet.z_flips(q)[w], 0u) << "qubit " << q << " word " << w;
    }
  }
  EXPECT_EQ(quiet.rng().next_u64(), untouched.rng().next_u64());
}

// A gadget wider than the register, or an active qubit outside it, would
// write past the frame buffers (and past the runners' storage scratch) in
// every build. Both runners check before the first op runs.
TEST(GadgetRunnerDeathTest, RejectCircuitsAndActiveQubitsOutsideTheRegister) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  sim::Circuit wide(5);
  wide.h(4);
  wide.tick();
  sim::Circuit fits(2);
  fits.h(0);
  fits.tick();
  const std::vector<uint32_t> active = {0, 1};
  const std::vector<uint32_t> outside = {0, 6};
  const auto noise = sim::NoiseParams::uniform_gate(1e-3, /*eps_store=*/1e-3);
  const char* kWide = "circuit larger than frame register";
  const char* kOutside = "active qubit outside frame register";

  sim::BatchFrameSim batch(4, 64, /*seed=*/1);
  BatchGadgetRunner runner(batch, noise);
  EXPECT_DEATH(runner.run(wide, active, nullptr), kWide);
  EXPECT_DEATH(runner.run(fits, outside, nullptr), kOutside);

  sim::FrameSim frame(4, /*seed=*/1);
  StochasticInjector injector(noise);
  EXPECT_DEATH((void)run_gadget(frame, wide, injector, active), kWide);
  EXPECT_DEATH((void)run_gadget(frame, fits, injector, outside), kOutside);
}

// Verdicts of fixed-seed Steane cycles on both engines: serial shots, each
// on a fresh SteaneRecovery, and one BatchSteaneRecovery block. Each serial
// shot also decodes its memory noise before the cycle, so the first shot's
// first use of gf2::hamming743() is not nested in the initialization of
// steane_register_cycle(), which builds its circuits from the same table.
struct SteaneVerdicts {
  std::vector<size_t> serial;
  std::vector<uint8_t> batch;
  uint64_t batch_logical = 0;
  uint64_t batch_residual = 0;
  bool operator==(const SteaneVerdicts&) const = default;
};

SteaneVerdicts run_steane_cycles(uint64_t seed) {
  const auto noise = sim::NoiseParams::uniform_gate(8e-3);
  SteaneVerdicts out;
  for (uint64_t s = 0; s < 300; ++s) {
    SteaneRecovery rec(noise, RecoveryPolicy{}, seed + s);
    rec.apply_memory_noise(0.01);
    const bool incoming = rec.any_logical_error();
    rec.run_cycle();
    out.serial.push_back(size_t{incoming} |
                         size_t{rec.logical_x_error()} << 1 |
                         size_t{rec.logical_z_error()} << 2 |
                         rec.residual_x_coset_weight() << 3 |
                         rec.residual_z_coset_weight() << 7);
  }
  BatchSteaneRecovery batch(noise, RecoveryPolicy{}, /*shots=*/256, seed);
  batch.apply_memory_noise(0.01);
  batch.run_cycle();
  for (size_t lane = 0; lane < batch.num_shots(); ++lane) {
    out.batch.push_back(batch.any_logical_error(lane));
  }
  out.batch_logical = batch.count_any_logical_error();
  out.batch_residual = batch.count_residual();
  return out;
}

// The drivers share process-wide tables built on first use
// (gf2::hamming743(), steane_register_cycle()). Four threads start at once
// and build and run both drivers, so under ctest, which runs each test in
// its own process, they are the tables' first users; CI's TSan job runs
// this test to check that first use. Each thread's verdicts must equal a
// serial rerun of the same seeds.
TEST(SharedTables, ConcurrentDriversMatchSerial) {
  constexpr size_t kThreads = 4;
  std::vector<SteaneVerdicts> concurrent(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      concurrent[t] = run_steane_cycles(1000 * (t + 1));
    });
  }
  for (std::thread& thread : threads) thread.join();
  uint64_t failures = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    const SteaneVerdicts serial = run_steane_cycles(1000 * (t + 1));
    EXPECT_TRUE(concurrent[t] == serial) << "thread " << t;
    failures += serial.batch_logical;
  }
  EXPECT_GT(failures, 0u);
}

}  // namespace
}  // namespace ftqc::ft
