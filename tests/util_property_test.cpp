// Property tests for the support layers: RNG, statistics, circuit IR
// composition, batch-vs-single frame agreement, tableau internals, and
// anyon-simulator entanglement behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "sim/batch_frame_sim.h"
#include "sim/frame_sim.h"
#include "sim/noise_model.h"
#include "sim/runner.h"
#include "sim/tableau_sim.h"
#include "topo/anyon_gates.h"
#include "topo/anyon_sim.h"

namespace ftqc {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (const uint64_t bound : {1ull, 2ull, 3ull, 7ull, 60ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  std::array<int, 5> counts{};
  const int n = 50000;
  for (int i = 0; i < n; ++i) counts[rng.next_below(5)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.01);
  }
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(5);
  Rng child_a = parent.fork(0);
  Rng child_b = parent.fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (child_a.next_u64() == child_b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// The rare-event samplers' engine against the standard library's, the
// oracle of its stream: 1,250 draws span the seeding and four twists.
TEST(Mt19937_64, MatchesStdEngineDrawForDraw) {
  std::vector<uint64_t> seeds = {0, 1, 5489, ~uint64_t{0}};
  uint64_t splitmix = 0;
  for (int i = 0; i < 4; ++i) {
    uint64_t z = (splitmix += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    seeds.push_back(z ^ (z >> 31));
  }
  for (const uint64_t seed : seeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < 1250; ++i) {
      ASSERT_EQ(engine(), oracle()) << "seed " << seed << ", draw " << i;
    }
  }
}

TEST(Proportion, WilsonIntervalCoversTruth) {
  // 95% interval should cover the true p in most repeated experiments.
  const double p_true = 0.3;
  Rng rng(17);
  int covered = 0;
  const int reps = 200;
  for (int r = 0; r < reps; ++r) {
    Proportion prop;
    for (int i = 0; i < 500; ++i) {
      prop.trials++;
      prop.successes += rng.bernoulli(p_true);
    }
    const double lo = prop.wilson_center() - prop.wilson_halfwidth();
    const double hi = prop.wilson_center() + prop.wilson_halfwidth();
    covered += (p_true >= lo && p_true <= hi);
  }
  EXPECT_GT(covered, reps * 0.9);
}

TEST(Proportion, EmptyTrialsAreSafe) {
  const Proportion p;
  EXPECT_EQ(p.mean(), 0.0);
  EXPECT_EQ(p.wilson_halfwidth(), 1.0);
}

TEST(Proportion, ZeroTrialsAreNotAMeasuredZero) {
  // mean() returns 0.0 both for "never ran" and "0 failures in n shots";
  // resolved() is the bit fit loops must gate on (regression: the E14/E18
  // sweeps used to feed unresolved points into their crossover fits).
  const Proportion never_ran;
  EXPECT_FALSE(never_ran.resolved());
  EXPECT_EQ(never_ran.mean(), 0.0);
  EXPECT_TRUE(std::isinf(never_ran.relative_halfwidth()));

  const Proportion measured_zero{0, 1000};
  EXPECT_TRUE(measured_zero.resolved());
  EXPECT_EQ(measured_zero.mean(), 0.0);

  const Proportion resolved{25, 1000};
  EXPECT_TRUE(resolved.resolved());
  EXPECT_NEAR(resolved.relative_halfwidth(),
              resolved.wilson_halfwidth() / 0.025, 1e-12);
}

TEST(UnitCrossing, FlagsExtrapolationOutsideSampledRange) {
  // Ratios straddle 1 inside the sampled x range: a measured crossing.
  const std::vector<double> xs = {1e-4, 2e-4, 4e-4, 8e-4};
  const std::vector<double> straddling = {0.25, 0.5, 1.0, 2.0};
  const UnitCrossing measured = loglog_unit_crossing_ex(xs, straddling);
  EXPECT_TRUE(measured.valid);
  EXPECT_FALSE(measured.extrapolated);
  EXPECT_GE(measured.x, measured.x_min);
  EXPECT_LE(measured.x, measured.x_max);

  // All ratios below 1: the fitted crossing lies beyond x_max and must be
  // flagged (this was silently reported as a measurement before).
  const std::vector<double> below = {0.01, 0.02, 0.04, 0.08};
  const UnitCrossing extrapolated = loglog_unit_crossing_ex(xs, below);
  EXPECT_TRUE(extrapolated.valid);
  EXPECT_TRUE(extrapolated.extrapolated);
  EXPECT_GT(extrapolated.x, extrapolated.x_max);

  // The scalar wrapper keeps its historical contract.
  EXPECT_EQ(loglog_unit_crossing(xs, straddling), measured.x);

  // Unusable inputs: fewer than two positive points -> invalid.
  const UnitCrossing invalid = loglog_unit_crossing_ex({1e-4}, {0.5});
  EXPECT_FALSE(invalid.valid);
  EXPECT_EQ(loglog_unit_crossing({1e-4}, {0.5}), 0.0);

  // Zero-ratio points (unresolved Monte Carlo zeros) are excluded from the
  // fit and from the sampled range.
  const std::vector<double> with_zeros = {0.0, 0.5, 1.0, 2.0};
  const UnitCrossing skip_zeros = loglog_unit_crossing_ex(xs, with_zeros);
  EXPECT_TRUE(skip_zeros.valid);
  EXPECT_EQ(skip_zeros.x_min, 2e-4);
}

TEST(Strfmt, FormatsLikePrintf) {
  EXPECT_EQ(strfmt("%d/%d", 3, 7), "3/7");
  EXPECT_EQ(strfmt("%.2f", 1.5), "1.50");
}

TEST(CircuitCompose, AppendRemapsQubitsAndConditionals) {
  sim::Circuit inner(2);
  inner.h(0);
  const int32_t m = inner.m(0);
  inner.x(1, m);

  sim::Circuit outer(5);
  outer.m(4);  // occupies record slot 0
  const std::vector<uint32_t> map = {3, 2};
  outer.append_circuit(inner, map);

  // Inner's H 0 must land on qubit 3; the conditional must reference the
  // OFFSET record index (1, not 0).
  bool saw_h3 = false, saw_cond = false;
  for (const auto& op : outer.ops()) {
    if (op.gate == sim::Gate::H && op.targets[0] == 3) saw_h3 = true;
    if (op.gate == sim::Gate::X && op.targets[0] == 2) {
      saw_cond = true;
      EXPECT_EQ(op.cond, 1);
    }
  }
  EXPECT_TRUE(saw_h3);
  EXPECT_TRUE(saw_cond);
  EXPECT_EQ(outer.num_measurements(), 2u);
}

TEST(CircuitCompose, GateCountsAndDepth) {
  sim::Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.tick();
  c.cx(1, 2);
  c.tick();
  EXPECT_EQ(c.count(sim::Gate::CX), 2u);
  EXPECT_EQ(c.depth_in_ticks(), 3u);  // two TICKs => three layers
}

TEST(BatchVsSingleFrame, CompositeCircuitStatisticsMatch) {
  // A layered circuit with propagation: compare marginal flip rates.
  sim::Circuit circuit(4);
  circuit.x_error(0, 0.08);
  circuit.cx(0, 1);
  circuit.depolarize1(2, 0.1);
  circuit.cx(2, 3);
  circuit.z_error(3, 0.05);
  circuit.cx(1, 2);

  const size_t shots = 64 * 1024;
  sim::BatchFrameSim batch(4, shots, 5);
  batch.run(circuit);

  std::array<double, 4> batch_x{};
  for (size_t q = 0; q < 4; ++q) {
    size_t hits = 0;
    for (size_t s = 0; s < batch.num_shots(); ++s) hits += batch.x_flip(q, s);
    batch_x[q] = static_cast<double>(hits) / batch.num_shots();
  }

  std::array<double, 4> single_x{};
  for (size_t s = 0; s < shots; ++s) {
    sim::FrameSim frame(4, 9000 + s);
    run_circuit(frame, circuit);
    for (size_t q = 0; q < 4; ++q) {
      single_x[q] += frame.destructive_z_flip(q) ? 1 : 0;
    }
  }
  for (auto& v : single_x) v /= static_cast<double>(shots);

  for (size_t q = 0; q < 4; ++q) {
    EXPECT_NEAR(batch_x[q], single_x[q], 0.01) << "qubit " << q;
  }
}

TEST(TableauInternals, DestabilizersPairWithStabilizers) {
  // destab_i anticommutes with stab_i and commutes with every stab_j (j!=i),
  // in the initial state and after a scrambling Clifford circuit.
  sim::TableauSim sim(5, 3);
  sim.apply_h(0);
  sim.apply_cx(0, 3);
  sim.apply_s(3);
  sim.apply_cx(3, 1);
  sim.apply_h(4);
  sim.apply_cx(4, 2);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      const bool commute =
          sim.destabilizer(i).commutes_with(sim.stabilizer(j));
      EXPECT_EQ(commute, i != j) << i << "," << j;
    }
  }
}

TEST(NoiseModelExtras, LeakChannelsInserted) {
  sim::Circuit ideal(2);
  ideal.h(0);
  ideal.cx(0, 1);
  sim::NoiseParams params;
  params.p_leak = 1e-3;
  const auto noisy = add_noise(ideal, params);
  EXPECT_EQ(noisy.count(sim::Gate::LEAK_ERROR), 3u);  // 1 after H, 2 after CX
}

TEST(NoiseModelExtras, UniformGateSetsAllKnobs) {
  const auto p = sim::NoiseParams::uniform_gate(1e-3, 1e-4);
  EXPECT_EQ(p.eps_gate1, 1e-3);
  EXPECT_EQ(p.eps_gate2, 1e-3);
  EXPECT_EQ(p.eps_meas, 1e-3);
  EXPECT_EQ(p.eps_prep, 1e-3);
  EXPECT_EQ(p.eps_store, 1e-4);
  EXPECT_FALSE(p.is_noiseless());
  EXPECT_TRUE(sim::NoiseParams{}.is_noiseless());
}

TEST(AnyonEntanglement, PullThroughSuperpositionEntanglesPairs) {
  // Pull a u0-pair through a vacuum pair: each class element conjugates the
  // target differently, entangling the two pairs (Eq. 41 extended linearly).
  const topo::A5 group;
  topo::AnyonSim sim(group, 21);
  const size_t target = sim.create_pair(topo::computational_u0());
  const size_t through = sim.create_vacuum_pair(topo::computational_u0());
  EXPECT_EQ(sim.support_size(), 20u);
  sim.pull_through(target, through);
  EXPECT_EQ(sim.support_size(), 20u);
  // The target's marginal is now mixed over the orbit of u0 under
  // class conjugation; measuring the through-pair's flux collapses the
  // target to the matching conjugate.
  const topo::Perm u_c = sim.measure_flux(through);
  const topo::Perm expected = topo::computational_u0().conjugated_by(u_c);
  EXPECT_NEAR(sim.flux_probability(target, expected), 1.0, 1e-12);
}

TEST(AnyonEntanglement, ChargeMeasurementOnHalfOfEntangledState) {
  // NOT conditioned on a superposed through-pair, then charge-measure the
  // target: outcomes remain properly normalized (regression test for the
  // projector bookkeeping).
  const topo::A5 group;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    topo::AnyonSim sim(group, 50 + seed);
    const size_t q = topo::create_computational_pair(sim, false);
    (void)topo::measure_computational_charge(sim, q);
    topo::apply_topological_not(sim, q);
    EXPECT_NEAR(sim.norm(), 1.0, 1e-9);
    (void)sim.measure_flux(q);
    EXPECT_NEAR(sim.norm(), 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace ftqc
