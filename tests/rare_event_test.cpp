// The rare-event measurement engine: binomial priors, the stratified
// estimator's exact-mixture property on toy gadgets with analytically known
// failure sets, chunk-boundary/seed determinism of the stratum sampler,
// raw-shot charging and known-zero strata under add_shots grants, the
// estimator's size checks, a direct-vs-stratified cross-check on the real
// level-1 Steane cycle, a recorded pin on both sampler injectors' draws on
// that cycle, the integer fault test against the floating-point decision
// it must equal, and the calibration's storage count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "common/stats.h"
#include "fnv1a.h"
#include "ft/fault_enumeration.h"
#include "ft/steane_recovery.h"
#include "sim/frame_sim.h"
#include "sim/rare_event.h"
#include "sim/shot_runner.h"
#include "threshold/pseudothreshold.h"

namespace ftqc::ft {
namespace {

// --- Toy gadgets with analytically known failure sets --------------------

// Five prep locations (one X variant each) on five qubits; the gadget fails
// iff locations {0,2} both fault OR {1,3,4} all fault. Under independent
// per-location faulting at ε the exact failure probability is
//   P = ε² + ε³ − ε⁵              (inclusion–exclusion on the two events).
bool toy5_fails(NoiseInjector& injector) {
  sim::FrameSim f(5, /*seed=*/1);
  for (uint32_t q = 0; q < 5; ++q) injector.on_prep(f, q);
  const bool a = f.destructive_z_flip(0) && f.destructive_z_flip(2);
  const bool b = f.destructive_z_flip(1) && f.destructive_z_flip(3) &&
                 f.destructive_z_flip(4);
  return a || b;
}

double toy5_analytic(double eps) {
  return eps * eps + eps * eps * eps - std::pow(eps, 5);
}

// One prep location and one 3-variant gate location; fails iff BOTH qubits
// carry an X component. The gate fault contributes X or Y (2 of 3 variants),
// so P = ε · ε · (2/3) — this pins the variant weighting.
bool toy_variant_fails(NoiseInjector& injector) {
  sim::FrameSim f(2, /*seed=*/1);
  injector.on_prep(f, 0);
  injector.on_gate1(f, 1);
  return f.destructive_z_flip(0) && f.destructive_z_flip(1);
}

// Fault-dependent control flow in miniature: five prep locations on the
// noiseless path, but qubit 0's preparation is VERIFIED — a flip is
// detected, discarded and re-prepared once, adding a sixth location to the
// realized path (the cat-retry loops of the real gadgets, scaled down).
// Failure = final q0 flip AND q1 flip, which needs the first q0 prep faulty
// (to open the retry), the retry prep faulty, and q1 faulty:
//   P = ε³ exactly.
bool adaptive_toy_fails(NoiseInjector& injector) {
  sim::FrameSim f(5, /*seed=*/1);
  injector.on_prep(f, 0);
  if (f.destructive_z_flip(0)) {
    f.reset(0);              // verification caught the flip: discard...
    injector.on_prep(f, 0);  // ...and retry — the path grew by a location
  }
  for (uint32_t q = 1; q < 5; ++q) injector.on_prep(f, q);
  return f.destructive_z_flip(0) && f.destructive_z_flip(1);
}

// --- Binomial prior ------------------------------------------------------

TEST(BinomialPmf, MatchesSmallClosedForms) {
  EXPECT_NEAR(sim::binomial_pmf(2, 0, 0.25), 0.5625, 1e-12);
  EXPECT_NEAR(sim::binomial_pmf(2, 1, 0.25), 0.375, 1e-12);
  EXPECT_NEAR(sim::binomial_pmf(2, 2, 0.25), 0.0625, 1e-12);
  // Degenerate p.
  EXPECT_EQ(sim::binomial_pmf(5, 0, 0.0), 1.0);
  EXPECT_EQ(sim::binomial_pmf(5, 1, 0.0), 0.0);
  EXPECT_EQ(sim::binomial_pmf(5, 5, 1.0), 1.0);
  // k beyond n.
  EXPECT_EQ(sim::binomial_pmf(3, 4, 0.1), 0.0);
}

TEST(BinomialPmf, SumsToOneAndSurvivesLargeN) {
  double total = 0;
  for (size_t k = 0; k <= 60; ++k) total += sim::binomial_pmf(60000, k, 1e-4);
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Far-tail terms must underflow gracefully, not overflow the binomial
  // coefficient (C(60000, 250) alone is astronomically large).
  const double tail = sim::binomial_pmf(60000, 250, 1e-4);
  EXPECT_GT(tail, 0.0);
  EXPECT_LT(tail, 1e-250);
  // Beyond double range the pmf flushes to zero instead of misbehaving.
  EXPECT_EQ(sim::binomial_pmf(60000, 400, 1e-4), 0.0);
}

// --- Exact mixture property ----------------------------------------------

TEST(StratifiedMixture, ExhaustiveStrataReproduceBinomialMixtureExactly) {
  const FaultUniverse universe =
      record_fault_universe(toy5_fails, ScanOptions{});
  ASSERT_EQ(universe.size(), 5u);
  for (const double eps : {0.3, 0.05, 0.004}) {
    double mixture = 0;
    for (size_t k = 0; k <= 5; ++k) {
      const ExhaustiveSetScan scan = scan_fault_sets(toy5_fails, universe, k);
      mixture += sim::binomial_pmf(5, k, eps) * scan.conditional_failure();
    }
    EXPECT_NEAR(mixture, toy5_analytic(eps), 1e-12) << "eps " << eps;
  }
}

TEST(StratifiedMixture, VariantWeightsEnterTheConditional) {
  const FaultUniverse universe =
      record_fault_universe(toy_variant_fails, ScanOptions{});
  ASSERT_EQ(universe.size(), 2u);
  const ExhaustiveSetScan pairs = scan_fault_sets(toy_variant_fails, universe, 2);
  // Of the 1 × 3 two-fault configurations, the X and Y gate variants fail.
  EXPECT_EQ(pairs.sets_tried, 3u);
  EXPECT_NEAR(pairs.conditional_failure(), 2.0 / 3.0, 1e-12);
  for (const double eps : {0.2, 0.01}) {
    const double mixture =
        sim::binomial_pmf(2, 2, eps) * pairs.conditional_failure();
    EXPECT_NEAR(mixture, eps * eps * (2.0 / 3.0), 1e-12);
  }
}

// --- Sampled estimator ---------------------------------------------------

TEST(RareEventSweep, ResolvesToyRatesDownTo1em10) {
  // Pinning k = 1 is what makes the 1e-10 point resolvable: a sampled
  // stratum can only bound its conditional by a Wilson interval, and at
  // ε = 1e-5 the k = 1 prior weight (~5e-5) times any honest interval
  // swamps a 1e-10 mean. The exhaustive scan PROVES the stratum is zero.
  const FaultUniverse universe =
      record_fault_universe(toy5_fails, ScanOptions{});
  ASSERT_EQ(scan_fault_sets(toy5_fails, universe, 1).sets_failing, 0u);

  RareEventOptions options;
  options.max_faults = 3;
  options.known_zero_max_k = 1;
  options.budget = 8000;
  options.seed = 7;
  const std::vector<double> eps = {1e-2, 1e-5};
  const RareEventSweep sweep =
      estimate_rare_failure_sweep(toy5_fails, eps, options);

  ASSERT_EQ(sweep.estimates.size(), 2u);
  EXPECT_EQ(sweep.n_eff, 5.0);
  for (size_t i = 0; i < eps.size(); ++i) {
    const auto& est = sweep.estimates[i];
    const double truth = toy5_analytic(eps[i]);
    EXPECT_NEAR(est.mean, truth, est.halfwidth) << "eps " << eps[i];
    EXPECT_LT(est.relative_halfwidth(), 0.30) << "eps " << eps[i];
  }
  // The ε = 1e-5 point sits at ~1e-10 — five orders below the direct-MC
  // floor reachable with this budget of 8000 replays.
  EXPECT_LT(sweep.estimates[1].mean, 2e-10);
  EXPECT_GT(sweep.estimates[1].mean, 0.5e-10);
  // Stratum 0 was pinned by the noiseless replay, not sampled.
  EXPECT_EQ(sweep.strata[0].trials, 0u);
  EXPECT_LE(sweep.shots, options.budget);
}

TEST(RareEventSweep, DeterministicForEqualSeeds) {
  RareEventOptions options;
  options.max_faults = 3;
  options.budget = 1500;
  options.seed = 7;
  const std::vector<double> eps = {1e-3, 1e-6};
  const RareEventSweep a = estimate_rare_failure_sweep(toy5_fails, eps, options);
  const RareEventSweep b = estimate_rare_failure_sweep(toy5_fails, eps, options);
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (size_t i = 0; i < a.estimates.size(); ++i) {
    EXPECT_EQ(a.estimates[i].mean, b.estimates[i].mean);
    EXPECT_EQ(a.estimates[i].halfwidth, b.estimates[i].halfwidth);
  }
  for (size_t k = 0; k < a.strata.size(); ++k) {
    EXPECT_EQ(a.strata[k].successes, b.strata[k].successes);
    EXPECT_EQ(a.strata[k].trials, b.strata[k].trials);
  }
}

TEST(RareEventSweep, RejectsBadEpsPointsAndNeffOverride) {
  RareEventOptions options;
  options.max_faults = 3;
  options.budget = 2000;
  const auto sweep = [&](const std::vector<double>& eps) {
    return estimate_rare_failure_sweep(toy5_fails, eps, options);
  };
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  // eps > 1 and eps < 0 came back as NaN after the whole budget, eps = 1 as
  // mean 0 where P(fail) = 1, and an empty list spent the budget for no
  // estimate.
  for (const double eps : {1.5, 1.0, -1e-3, nan, inf}) {
    EXPECT_DEATH((void)sweep({1e-3, eps}), "every eps of eps_points");
  }
  EXPECT_DEATH((void)sweep({}), "eps_points must hold");
  // A NaN or negative override fell back to the noiseless count.
  for (const double n_eff : {nan, -3.0, inf}) {
    options.n_eff_override = n_eff;
    EXPECT_DEATH((void)sweep({1e-3}), "n_eff_override must be finite");
  }
  // eps = 0 stays legal, and fails never.
  options.n_eff_override = 0;
  const RareEventSweep zero = sweep({0.0, 1e-3});
  EXPECT_EQ(zero.estimates[0].mean, 0.0);
  EXPECT_GT(zero.estimates[1].mean, 0.0);
}

TEST(ConditionedSampler, ChunkBoundariesDoNotChangeTheSample) {
  const uint64_t seed = 77;
  const ConditionedSetScan whole = sample_conditioned_fault_sets(
      adaptive_toy_fails, all_kinds(), /*q=*/0.4, /*k=*/2, 900, 0, seed);
  EXPECT_EQ(whole.raw_shots, 900u);
  EXPECT_GT(whole.accepted, 0u);
  EXPECT_EQ(whole.accepted_locations.size(), whole.accepted);
  ConditionedSetScan split;
  for (const auto& [first, n] :
       {std::pair<size_t, size_t>{0, 400}, {400, 100}, {500, 400}}) {
    const ConditionedSetScan chunk = sample_conditioned_fault_sets(
        adaptive_toy_fails, all_kinds(), 0.4, 2, n, first, seed);
    split.raw_shots += chunk.raw_shots;
    split.accepted += chunk.accepted;
    split.accepted_failing += chunk.accepted_failing;
    split.accepted_locations.insert(split.accepted_locations.end(),
                                    chunk.accepted_locations.begin(),
                                    chunk.accepted_locations.end());
    split.accepted_failing_mask.insert(split.accepted_failing_mask.end(),
                                       chunk.accepted_failing_mask.begin(),
                                       chunk.accepted_failing_mask.end());
  }
  EXPECT_EQ(whole.raw_shots, split.raw_shots);
  EXPECT_EQ(whole.accepted, split.accepted);
  EXPECT_EQ(whole.accepted_failing, split.accepted_failing);
  EXPECT_EQ(whole.accepted_locations, split.accepted_locations);
  EXPECT_EQ(whole.accepted_failing_mask, split.accepted_failing_mask);
}

TEST(ConditionedSampler, FixedPathConditionalMatchesExhaustive) {
  // On a gadget WITHOUT fault-dependent control flow, accepting exactly-k
  // Bernoulli shots is the same distribution as drawing a uniform k-subset
  // of the noiseless path; the conditional must converge on the exhaustive
  // scan's value, and every accepted shot must see the fixed path length.
  const FaultUniverse universe =
      record_fault_universe(toy5_fails, ScanOptions{});
  const ExhaustiveSetScan exact = scan_fault_sets(toy5_fails, universe, 2);
  const ConditionedSetScan cond = sample_conditioned_fault_sets(
      toy5_fails, all_kinds(), /*q=*/0.4, /*k=*/2, 4000, 0, /*seed=*/123);
  ASSERT_GT(cond.accepted, 500u);
  for (const size_t n_s : cond.accepted_locations) EXPECT_EQ(n_s, 5u);
  EXPECT_NEAR(cond.proportion().mean(), exact.conditional_failure(),
              3 * cond.proportion().wilson_halfwidth());
}

TEST(StratifiedEstimator, RejectionSamplersAreChargedRawShots) {
  // A sampler that accepts half its proposals: the budget and the
  // first_shot offsets advance by the RAW count, so replay cost stays
  // honest and per-shot seeds never repeat across grants.
  std::vector<size_t> offsets;
  sim::StratifiedEstimator estimator(
      1, [&](size_t, size_t shots, size_t first_shot) {
        offsets.push_back(first_shot);
        return sim::StratumChunk{Proportion{0, shots / 2}, shots};
      });
  (void)estimator.add_view({1.0});
  for (const size_t grant : {40, 40, 20}) estimator.add_shots(0, grant);
  EXPECT_EQ(estimator.total_shots(), 100u);             // raw, not accepted
  EXPECT_EQ(estimator.stratum(0).sampled.trials, 50u);  // accepted
  EXPECT_EQ(offsets, (std::vector<size_t>{0, 40, 80}));
}

TEST(StratifiedEstimator, RejectsShortViewsAndOutOfRangeStrata) {
  sim::StratifiedEstimator estimator(3, [](size_t, size_t shots, size_t) {
    return sim::StratumChunk{Proportion{0, shots}, shots};
  });
  // The checks hold in NDEBUG builds too: a short weight vector, or a view
  // never registered, would make estimate() read past a vector's end.
  EXPECT_DEATH((void)estimator.add_view({0.5, 0.5}), "2 weights for 3 strata");
  EXPECT_DEATH(estimator.mark_known_zero(3), "stratum 3 out of range");
  EXPECT_DEATH(estimator.add_shots(3, 10), "stratum 3 out of range");
  EXPECT_DEATH((void)estimator.stratum(3), "stratum 3 out of range");
  EXPECT_DEATH((void)estimator.estimate(), "view 0 out of range for 0 views");
  EXPECT_EQ(estimator.add_view({0.2, 0.3, 0.5}), 0u);
  EXPECT_DEATH(estimator.set_weight(1, 0, 0.1), "view 1 out of range");
  EXPECT_DEATH(estimator.set_weight(0, 3, 0.1), "stratum 3 out of range");
  EXPECT_DEATH(estimator.set_conditional(1, 0, 0.1, 0.01),
               "view 1 out of range");
  EXPECT_DEATH(estimator.set_conditional(0, 3, 0.1, 0.01),
               "stratum 3 out of range");
  EXPECT_DEATH((void)estimator.estimate(1), "view 1 out of range");
  estimator.mark_known_zero(0);
  estimator.add_shots(2, 10);
  estimator.set_weight(0, 1, 0.25);
  estimator.set_conditional(0, 1, 0.5, 0.1);
  EXPECT_EQ(estimator.total_shots(), 10u);
  EXPECT_DOUBLE_EQ(estimator.estimate().mean, 0.25 * 0.5);
}

TEST(RareEventSweep, AdaptivePathRetryGadgetIsUnbiased) {
  // Regression for the two biases of noiseless-path fault arming on
  // adaptive gadgets (funneling into retry windows; binomial-prior
  // underdispersion): the runtime-conditioned sampler with likelihood-ratio
  // weights must land on the analytic ε³ of the retry toy, whose failure
  // set lives partly INSIDE the fault-opened retry location.
  const double eps = 0.05;
  // k = 1 pin is legitimate on adaptive gadgets too: with one fault total,
  // the path up to that fault is the noiseless path, so the exhaustive
  // noiseless-path scan covers every reachable single-fault configuration.
  const FaultUniverse universe =
      record_fault_universe(adaptive_toy_fails, ScanOptions{});
  ASSERT_EQ(universe.size(), 5u);
  ASSERT_EQ(scan_fault_sets(adaptive_toy_fails, universe, 1).sets_failing, 0u);

  RareEventOptions options;
  options.max_faults = 4;
  options.known_zero_max_k = 1;
  options.budget = 20000;
  options.seed = 31;
  const RareEventSweep sweep =
      estimate_rare_failure_sweep(adaptive_toy_fails, {eps}, options);
  const double truth = eps * eps * eps;
  EXPECT_NEAR(sweep.estimates[0].mean, truth, sweep.estimates[0].halfwidth);
  EXPECT_LT(sweep.estimates[0].relative_halfwidth(), 0.5);
  // The whole raw budget was spent, and accounted for per stratum.
  EXPECT_EQ(sweep.shots, 20000u);
  size_t raw_total = 0;
  for (const size_t r : sweep.raw_shots) raw_total += r;
  EXPECT_EQ(raw_total, sweep.shots);
}

TEST(ShotRunnerRange, SerialAndBlockExecutionAgree) {
  // A pure function of the per-shot seed must count identically through the
  // serial range loop and the block-decomposed loop (lane i of a block at
  // absolute index `first` sees seed_for(first + i)) — this is what lets a
  // stratum run batched without changing its estimate.
  const auto shot_fails = [](uint64_t seed) -> bool {
    uint64_t z = seed * 0x2545F4914F6CDD1Dull;
    z ^= z >> 29;
    return (z & 7) == 0;
  };
  sim::ShotPlan plan;
  plan.seed = 404;
  plan.seed_stride = 17;
  plan.block_shots = 64;
  const sim::ShotRunner runner(plan);
  for (const size_t first : {size_t{0}, size_t{64}, size_t{1000}}) {
    const sim::ShotResult serial = runner.run_range(first, 512, shot_fails);
    const sim::ShotResult blocks = runner.run_range_blocks(
        first, 512, [&](uint64_t block_seed, size_t n) {
          uint64_t failures = 0;
          for (size_t i = 0; i < n; ++i) {
            failures += shot_fails(block_seed + plan.seed_stride * i);
          }
          return failures;
        });
    EXPECT_EQ(serial.failures(), blocks.failures()) << "first " << first;
    EXPECT_EQ(serial.trials, blocks.trials);
  }
}

TEST(ShotPlanStrata, StrataGetDecorrelatedSeedStreams) {
  sim::ShotPlan plan;
  plan.seed = 1;
  const uint64_t s1 = plan.for_stratum(1).seed;
  const uint64_t s2 = plan.for_stratum(2).seed;
  EXPECT_NE(s1, s2);
  EXPECT_NE(s1, plan.seed);
  // Same stratum, same sub-seed (reproducibility).
  EXPECT_EQ(plan.for_stratum(1).seed, s1);
}

TEST(StratifiedEstimator, KnownZeroStrataAreNeverSampled) {
  size_t calls_to_stratum1 = 0;
  sim::StratifiedEstimator estimator(
      3, [&](size_t stratum, size_t shots, size_t) {
        if (stratum == 1) ++calls_to_stratum1;
        return sim::StratumChunk{Proportion{0, shots}, shots};
      });
  estimator.mark_known_zero(0);
  estimator.mark_known_zero(1);
  (void)estimator.add_view({0.9, 0.09, 0.01});
  for (size_t stratum = 0; stratum < 3; ++stratum) {
    estimator.add_shots(stratum, 100);
  }
  estimator.add_shots(2, 100);
  EXPECT_EQ(calls_to_stratum1, 0u);
  EXPECT_EQ(estimator.total_shots(), 200u);
  EXPECT_EQ(estimator.stratum(1).sampled.trials, 0u);
  EXPECT_EQ(estimator.stratum(2).sampled.trials, 200u);
  // Pinned strata contribute no width: only stratum 2's interval remains.
  const auto est = estimator.estimate(0);
  EXPECT_EQ(est.mean, 0.0);
  const Proportion zero_of_200{0, 200};
  EXPECT_NEAR(est.halfwidth, 0.01 * zero_of_200.wilson_halfwidth(), 1e-15);
}

// --- Overlap-regime validation on a real gadget --------------------------

// At ε = 3e-3 the level-1 Steane cycle is measurable both ways; the
// stratified estimate must agree with direct Monte Carlo within ~2σ. (The
// full ε = 1e-3 battery, including the level-2 gadgets, runs in BENCH_E18.)
TEST(RareEventValidation, SteaneCycleMatchesDirectMonteCarlo) {
  const double eps = 3e-3;
  const auto noise = sim::NoiseParams::uniform_gate(eps, /*eps_store=*/0.0);

  const auto direct = threshold::measure_cycle_failure(
      threshold::RecoveryMethod::kSteane, eps, /*shots=*/40000, /*seed=*/5);

  const GadgetExperiment experiment = [](NoiseInjector& injector) {
    SteaneRecovery rec(sim::NoiseParams{}, RecoveryPolicy{}, /*seed=*/77);
    rec.set_injector(&injector);
    rec.run_cycle();
    rec.set_injector(nullptr);
    return rec.any_logical_error();
  };
  RareEventOptions options;
  options.scan.filter = gate_kinds_only();  // eps_store = 0 in the MC run
  // At ε = 3e-3 the Steane cycle's N·ε is order 1, so meaningful prior mass
  // sits out to k ~ 8; stopping earlier would put that mass in the tail
  // bound and blow up the interval.
  options.max_faults = 8;
  options.known_zero_max_k = 1;  // proven by the exhaustive single-fault scan
  options.budget = 16000;
  options.seed = 11;
  options.n_eff_override = calibrate_mean_locations(
      [](NoiseInjector& injector, uint64_t seed) {
        SteaneRecovery rec(sim::NoiseParams{}, RecoveryPolicy{}, seed);
        rec.set_injector(&injector);
        rec.run_cycle();
        rec.set_injector(nullptr);
        return rec.any_logical_error();
      },
      noise, gate_kinds_only(), /*num_shots=*/200, /*seed=*/3);
  const RareEventSweep sweep =
      estimate_rare_failure_sweep(experiment, {eps}, options);

  const double diff = std::abs(sweep.estimates[0].mean -
                               direct.failures.mean());
  const double combined =
      std::sqrt(sweep.estimates[0].halfwidth * sweep.estimates[0].halfwidth +
                direct.failures.wilson_halfwidth() *
                    direct.failures.wilson_halfwidth());
  // Pure statistical agreement — both 95% intervals combined in quadrature,
  // no bias allowance. The runtime-conditioned sampler places faults on the
  // path the gadget actually takes (retry windows included) and weighs
  // strata by the likelihood-ratio estimate of P(K = k), so the earlier
  // noiseless-path-arming biases (funneling into retry windows, binomial
  // underdispersion) are gone; the seeds here are fixed, so this either
  // holds deterministically or flags a real regression.
  EXPECT_LE(diff, combined)
      << "stratified " << sweep.estimates[0].mean << " vs direct "
      << direct.failures.mean();
  EXPECT_LT(sweep.estimates[0].relative_halfwidth(), 0.5);
}

// --- Recorded sampler draws on a real gadget -----------------------------

// The level-1 Steane cycle as the rare-event benches replay it: a fresh
// SteaneRecovery per replay, all noise from the injector.
bool steane_cycle_fails(NoiseInjector& injector, uint64_t seed) {
  SteaneRecovery rec(sim::NoiseParams{}, RecoveryPolicy{}, seed);
  rec.set_injector(&injector);
  rec.run_cycle();
  rec.set_injector(nullptr);
  return rec.any_logical_error();
}

// FNV-1a over the exact draws of both sampler injectors on that cycle: the
// Bernoulli proposals of sample_conditioned_fault_sets (strata k = 2..4 at
// q = k / N, every accepted shot's path length and verdict) and the
// stochastic counting pass of calibrate_mean_locations. A change that only
// reorganizes the serial replay path must keep the constant.
TEST(RareEventFingerprint, SteaneCycleSamplersMatchRecorded) {
  const GadgetExperiment experiment = [](NoiseInjector& injector) {
    return steane_cycle_fails(injector, /*seed=*/77);
  };
  ScanOptions gates;
  gates.filter = gate_kinds_only();
  const double n =
      static_cast<double>(record_fault_universe(experiment, gates).size());
  Fnv1a hash;
  size_t accepted = 0, failing = 0;
  for (const size_t k : {size_t{2}, size_t{3}, size_t{4}}) {
    const ConditionedSetScan scan = sample_conditioned_fault_sets(
        experiment, gate_kinds_only(), static_cast<double>(k) / n, k,
        /*num_shots=*/600, /*first_shot=*/0, /*seed=*/2027 + k);
    hash.add(scan.raw_shots);
    hash.add(scan.accepted);
    hash.add(scan.accepted_failing);
    for (const size_t n_s : scan.accepted_locations) hash.add(n_s);
    for (const uint8_t failed : scan.accepted_failing_mask) hash.add(failed);
    accepted += scan.accepted;
    failing += scan.accepted_failing;
  }
  const double mean_locations = calibrate_mean_locations(
      steane_cycle_fails, sim::NoiseParams::uniform_gate(1e-3, 1e-3),
      gate_kinds_only(), /*num_shots=*/200, /*seed=*/5);
  hash.add(std::bit_cast<uint64_t>(mean_locations));
  EXPECT_GT(accepted, 150u);
  EXPECT_GT(failing, 0u);
  EXPECT_GT(mean_locations, n);
  EXPECT_EQ(hash.value(), 0x05d4783ce9507362ull)
      << std::hex << hash.value();
}

// A raw draw of at least proposal_fault_threshold(q) is exactly a
// std::uniform_real_distribution<double>(0, 1) value of at least q: on the
// draws either side of the threshold, and on paired std::mt19937_64 draws.
// The q values include the proposals of strata k = 2..4 on this cycle.
TEST(ConditionedSampler, FaultThresholdMatchesUniformRealDecision) {
  struct FixedDraw {
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type x;
    result_type operator()() const { return x; }
  };
  const GadgetExperiment experiment = [](NoiseInjector& injector) {
    return steane_cycle_fails(injector, /*seed=*/77);
  };
  ScanOptions gates;
  gates.filter = gate_kinds_only();
  const double n =
      static_cast<double>(record_fault_universe(experiment, gates).size());
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  uint64_t seed = 2027;
  for (const double q : {2 / n, 3 / n, 4 / n, 0.4, 0.5, 1e-12}) {
    const uint64_t threshold = proposal_fault_threshold(q);
    for (const uint64_t x : {threshold - 1, threshold, threshold + 1}) {
      FixedDraw draw{x};
      EXPECT_EQ(x >= threshold, dist(draw) >= q) << "q " << q << ", x " << x;
    }
    std::mt19937_64 raw(++seed);
    std::mt19937_64 real(seed);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(raw() >= threshold, dist(real) >= q)
          << "q " << q << ", draw " << i;
    }
  }
}

// calibrate_mean_locations counts what its filter asks for, storage
// included, even at zero storage noise: with every rate 0 each shot takes
// the noiseless path, so under all_kinds() it counts exactly the recorded
// universe.
TEST(RareEventCalibration, AllKindsCountStorageAtZeroNoise) {
  const GadgetExperiment experiment = [](NoiseInjector& injector) {
    return steane_cycle_fails(injector, /*seed=*/77);
  };
  const FaultUniverse universe =
      record_fault_universe(experiment, ScanOptions{});
  ASSERT_GT(std::count(universe.kinds.begin(), universe.kinds.end(),
                       LocationKind::kStorage),
            0);
  const double mean_locations = calibrate_mean_locations(
      steane_cycle_fails, sim::NoiseParams{}, all_kinds(), /*num_shots=*/20,
      /*seed=*/5);
  EXPECT_EQ(mean_locations, static_cast<double>(universe.size()));
}

}  // namespace
}  // namespace ftqc::ft
