#include <gtest/gtest.h>

#include "common/stats.h"
#include "sim/batch_frame_sim.h"
#include "sim/frame_sim.h"
#include "sim/noise_model.h"
#include "sim/runner.h"
#include "sim/tableau_sim.h"

namespace ftqc::sim {
namespace {

TEST(FrameSim, XErrorFlipsZMeasurement) {
  FrameSim sim(2);
  sim.inject_x(0);
  EXPECT_TRUE(sim.measure_z(0));
  EXPECT_FALSE(sim.measure_z(1));
}

TEST(FrameSim, ZErrorFlipsXMeasurementOnly) {
  FrameSim sim(1);
  sim.inject_z(0);
  EXPECT_TRUE(sim.destructive_x_flip(0));
  EXPECT_FALSE(sim.destructive_z_flip(0));
}

TEST(FrameSim, ForwardXPropagationThroughCX) {
  // §3.1: a bit flip on the source of an XOR propagates to the target.
  FrameSim sim(2);
  sim.inject_x(0);
  sim.apply_cx(0, 1);
  EXPECT_TRUE(sim.destructive_z_flip(0));
  EXPECT_TRUE(sim.destructive_z_flip(1));
}

TEST(FrameSim, BackwardZPropagationThroughCX) {
  // §3.1: a phase error on the target propagates backward to the source.
  FrameSim sim(2);
  sim.inject_z(1);
  sim.apply_cx(0, 1);
  EXPECT_TRUE(sim.destructive_x_flip(0));
  EXPECT_TRUE(sim.destructive_x_flip(1));
}

TEST(FrameSim, HadamardExchangesXAndZ) {
  FrameSim sim(1);
  sim.inject_x(0);
  sim.apply_h(0);
  EXPECT_TRUE(sim.destructive_x_flip(0));
  EXPECT_FALSE(sim.destructive_z_flip(0));
}

TEST(FrameSim, ResetClearsFrame) {
  FrameSim sim(1);
  sim.inject_x(0);
  sim.inject_z(0);
  sim.reset(0);
  EXPECT_FALSE(sim.destructive_z_flip(0));
  EXPECT_FALSE(sim.destructive_x_flip(0));
}

TEST(FrameSim, LeakedQubitFreezesFrame) {
  FrameSim sim(2);
  sim.mark_leaked(0);
  sim.inject_x(1);
  sim.apply_cx(1, 0);  // absorbed: target leaked
  EXPECT_FALSE(sim.destructive_z_flip(0));
  sim.reset(0);
  EXPECT_FALSE(sim.is_leaked(0));
}

// The herald calls index std::vector<bool>s, which would read or write past
// their end without a trace; each checks its qubit in every build.
TEST(FrameSimDeathTest, HeraldCallsRejectOutOfRangeQubits) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  FrameSim sim(3);
  const char* kMsg = "herald qubit index out of range";
  EXPECT_DEATH(sim.mark_leaked(3), kMsg);
  EXPECT_DEATH((void)sim.is_leaked(3), kMsg);
  EXPECT_DEATH(sim.mark_erased(3), kMsg);
  EXPECT_DEATH((void)sim.is_erased(3), kMsg);
  EXPECT_DEATH(sim.leak_error(3, 0.5), kMsg);
  EXPECT_DEATH(sim.erase_error(3, 0.5), kMsg);
  // A zero rate draws nothing but is still a bad index.
  EXPECT_DEATH(sim.leak_error(64, 0.0), kMsg);
  EXPECT_DEATH(sim.erase_error(64, 0.0), kMsg);
}

#ifndef NDEBUG
// The gates check their indices (FTQC_DCHECK, off under NDEBUG) before they
// read a leakage herald, so a bad index cannot return early unchecked.
TEST(FrameSimDeathTest, GatesCheckIndicesBeforeReadingHeralds) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  FrameSim sim(3);
  const char* kMsg = "qubit index out of range";
  EXPECT_DEATH(sim.apply_h(3), kMsg);
  EXPECT_DEATH(sim.apply_s(3), kMsg);
  EXPECT_DEATH(sim.apply_cx(0, 3), kMsg);
  EXPECT_DEATH(sim.apply_cz(3, 0), kMsg);
  EXPECT_DEATH(sim.apply_swap(0, 3), kMsg);
}

// BatchFrameSim's per-qubit calls check their indices the same way before
// they touch a frame or herald word.
TEST(BatchFrameSimDeathTest, PerQubitCallsCheckIndices) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  BatchFrameSim sim(3, 64);
  const char* kMsg = "qubit index out of range";
  EXPECT_DEATH(sim.apply_h(3), kMsg);
  EXPECT_DEATH(sim.apply_cx(0, 3), kMsg);
  EXPECT_DEATH(sim.apply_swap(3, 0), kMsg);
  EXPECT_DEATH(sim.depolarize2(0, 3, 1.0), kMsg);
  EXPECT_DEATH(sim.erase_error(3, 1.0), kMsg);
  EXPECT_DEATH(sim.inject_z_masked(3, sim.abort_mask()), kMsg);
  EXPECT_DEATH((void)sim.measure_x(3), kMsg);
  EXPECT_DEATH(sim.reset(3), kMsg);
  EXPECT_DEATH((void)sim.heralded(3, 0), kMsg);
}
#endif

// Statistical agreement between FrameSim and TableauSim on a noisy circuit:
// the marginal flip probability of a measurement matches the full simulation.
TEST(FrameSim, AgreesWithTableauOnNoisyMemory) {
  // One qubit, depolarizing storage noise over 4 ticks, then measure.
  Circuit ideal(1);
  for (int t = 0; t < 4; ++t) ideal.tick();
  ideal.m(0);
  NoiseParams params;
  params.eps_store = 0.2;
  const Circuit noisy = add_noise(ideal, params);

  const size_t shots = 20000;
  Proportion tableau_flips;
  Proportion frame_flips;
  for (size_t s = 0; s < shots; ++s) {
    TableauSim tab(1, 10'000 + s);
    tableau_flips.trials++;
    tableau_flips.successes += run_circuit(tab, noisy)[0];

    FrameSim frame(1, 20'000 + s);
    frame_flips.trials++;
    frame_flips.successes += run_circuit(frame, noisy)[0];
  }
  // Both estimate the same physical flip probability.
  EXPECT_NEAR(tableau_flips.mean(), frame_flips.mean(),
              3 * (tableau_flips.wilson_halfwidth() +
                   frame_flips.wilson_halfwidth()));
}

TEST(BatchFrameSim, MatchesSingleFrameStatistics) {
  // X_ERROR(p) on one qubit: batch lanes should hit at rate ~p.
  const double p = 0.05;
  BatchFrameSim batch(1, 64 * 512, 99);
  Circuit c(1);
  c.x_error(0, p);
  batch.run(c);
  size_t hits = 0;
  for (size_t shot = 0; shot < batch.num_shots(); ++shot) {
    hits += batch.x_flip(0, shot);
  }
  const double rate = static_cast<double>(hits) / batch.num_shots();
  EXPECT_NEAR(rate, p, 0.01);
}

TEST(BatchFrameSim, CXPropagatesAllLanes) {
  BatchFrameSim batch(2, 128, 7);
  Circuit c(2);
  c.inject(0, 'X');
  c.cx(0, 1);
  batch.run(c);
  for (size_t shot = 0; shot < batch.num_shots(); ++shot) {
    EXPECT_TRUE(batch.x_flip(0, shot));
    EXPECT_TRUE(batch.x_flip(1, shot));
  }
}

TEST(BatchFrameSim, Depolarize1FlavorBalance) {
  // X:Y:Z flavors should be equally likely; Y contributes to both X and Z
  // flips, so P(x flip) = P(z flip) = 2p/3.
  const double p = 0.3;
  BatchFrameSim batch(1, 64 * 2048, 123);
  Circuit c(1);
  c.depolarize1(0, p);
  batch.run(c);
  size_t x_hits = 0, z_hits = 0;
  for (size_t shot = 0; shot < batch.num_shots(); ++shot) {
    x_hits += batch.x_flip(0, shot);
    z_hits += batch.z_flip(0, shot);
  }
  const double n = static_cast<double>(batch.num_shots());
  EXPECT_NEAR(x_hits / n, 2 * p / 3, 0.01);
  EXPECT_NEAR(z_hits / n, 2 * p / 3, 0.01);
}

TEST(NoiseModel, InsertsGateNoiseAfterEveryGate) {
  Circuit ideal(2);
  ideal.h(0);
  ideal.cx(0, 1);
  ideal.tick();
  ideal.m(0);
  const auto noisy = add_noise(ideal, NoiseParams::uniform_gate(1e-3));
  EXPECT_EQ(noisy.count(Gate::DEPOLARIZE1), 1u);  // after H
  EXPECT_EQ(noisy.count(Gate::DEPOLARIZE2), 1u);  // after CX
  EXPECT_EQ(noisy.count(Gate::X_ERROR), 1u);      // before M
}

TEST(NoiseModel, StorageNoiseOnlyOnIdleQubits) {
  Circuit ideal(3);
  ideal.h(0);
  ideal.tick();  // qubits 1, 2 idle
  NoiseParams params;
  params.eps_store = 1e-3;
  const auto noisy = add_noise(ideal, params);
  EXPECT_EQ(noisy.count(Gate::DEPOLARIZE1), 2u);
  // The storage errors land on qubits 1 and 2.
  for (const auto& op : noisy.ops()) {
    if (op.gate == Gate::DEPOLARIZE1) {
      EXPECT_NE(op.targets[0], 0u);
    }
  }
}

TEST(NoiseModel, NoiselessParamsLeaveCircuitUnchanged) {
  Circuit ideal(2);
  ideal.h(0);
  ideal.cx(0, 1);
  ideal.m(1);
  const auto noisy = add_noise(ideal, NoiseParams{});
  EXPECT_EQ(noisy.ops().size(), ideal.ops().size());
  EXPECT_EQ(count_fault_locations(noisy), 0u);
}

TEST(NoiseModel, BiasedParamsCompileToPauliChannels) {
  Circuit ideal(2);
  ideal.h(0);
  ideal.cx(0, 1);
  const double eps = 1e-3, eta = 10.0;
  const auto params = NoiseParams::biased_gate(eps, eta);
  const auto noisy = add_noise(ideal, params);
  EXPECT_EQ(noisy.count(Gate::DEPOLARIZE1), 0u);
  EXPECT_EQ(noisy.count(Gate::DEPOLARIZE2), 0u);
  EXPECT_EQ(noisy.count(Gate::PAULI_CHANNEL1), 1u);
  EXPECT_EQ(noisy.count(Gate::PAULI_CHANNEL2), 1u);
  for (const auto& op : noisy.ops()) {
    if (op.gate == Gate::PAULI_CHANNEL1) {
      // (p_x, p_y, p_z) = eps * frac: total eps, Z eta times more likely.
      EXPECT_DOUBLE_EQ(op.arg, eps * params.frac_x());
      EXPECT_DOUBLE_EQ(op.arg2, eps * params.frac_y());
      EXPECT_DOUBLE_EQ(op.arg3, eps * params.frac_z());
      EXPECT_NEAR(op.arg + op.arg2 + op.arg3, eps, 1e-15);
      EXPECT_NEAR(op.arg3 / op.arg, eta, 1e-9);
    } else if (op.gate == Gate::PAULI_CHANNEL2) {
      EXPECT_DOUBLE_EQ(op.arg, eps);
      EXPECT_DOUBLE_EQ(op.arg2, params.frac_x());
      EXPECT_DOUBLE_EQ(op.arg3, params.frac_y());
    }
  }
}

TEST(NoiseModel, EqualBiasFieldsStayOnTheDepolarizePath) {
  // bias (c, c, c) for any c is unbiased: the compiled circuit must be
  // op-for-op what the pre-bias compiler emitted (pinned RNG streams
  // depend on this).
  Circuit ideal(2);
  ideal.h(0);
  ideal.cx(0, 1);
  ideal.tick();
  NoiseParams scaled = NoiseParams::uniform_gate(1e-3, /*eps_store=*/1e-4);
  scaled.bias_x = scaled.bias_y = scaled.bias_z = 7.0;
  EXPECT_FALSE(scaled.is_biased());
  const auto baseline =
      add_noise(ideal, NoiseParams::uniform_gate(1e-3, 1e-4));
  const auto noisy = add_noise(ideal, scaled);
  ASSERT_EQ(noisy.ops().size(), baseline.ops().size());
  for (size_t i = 0; i < noisy.ops().size(); ++i) {
    EXPECT_EQ(noisy.ops()[i].gate, baseline.ops()[i].gate) << i;
    EXPECT_DOUBLE_EQ(noisy.ops()[i].arg, baseline.ops()[i].arg) << i;
  }
  EXPECT_EQ(noisy.count(Gate::PAULI_CHANNEL1), 0u);
  EXPECT_EQ(noisy.count(Gate::PAULI_CHANNEL2), 0u);
}

TEST(NoiseModel, ErasureInsertsHeraldOpsAtEveryExposedLocation) {
  // One ERASE per 1-qubit gate, two per 2-qubit gate, one per reset.
  Circuit ideal(2);
  ideal.h(0);
  ideal.cx(0, 1);
  ideal.r(1);
  const auto params = NoiseParams::with_erasure(1e-3, /*p_erase=*/0.02);
  const auto noisy = add_noise(ideal, params);
  EXPECT_EQ(noisy.count(Gate::ERASE), 4u);
  for (const auto& op : noisy.ops()) {
    if (op.gate == Gate::ERASE) {
      EXPECT_DOUBLE_EQ(op.arg, 0.02);
    }
  }
  // p_erase = 0 compiles no ERASE ops at all.
  const auto plain = add_noise(ideal, NoiseParams::uniform_gate(1e-3));
  EXPECT_EQ(plain.count(Gate::ERASE), 0u);
}

}  // namespace
}  // namespace ftqc::sim
