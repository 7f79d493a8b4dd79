#include "threshold/pseudothreshold.h"

#include "codes/library.h"
#include "ft/batch_recovery.h"
#include "ft/batch_shor.h"
#include "ft/generic_recovery.h"
#include "ft/steane_recovery.h"
#include "universal/batch_flag_recovery.h"
#include "universal/flag_recovery.h"

namespace ftqc::threshold {

namespace {

// Per-shot seed spacing: kept from the original hand-rolled loop so frame
// sweeps stay reproducible against pre-ShotRunner results.
constexpr uint64_t kSeedStride = 0x9E37;

}  // namespace

CyclePoint measure_cycle_failure(RecoveryMethod method, double eps_gate,
                                 size_t shots, uint64_t seed, double eps_store,
                                 sim::ShotEngine engine, bool parallel) {
  const auto noise = sim::NoiseParams::uniform_gate(eps_gate, eps_store);

  sim::ShotPlan plan;
  plan.shots = shots;
  plan.seed = seed;
  plan.seed_stride = kSeedStride;
  plan.engine = engine;
  plan.parallel = parallel;
  const sim::ShotRunner runner(plan);

  // kShor and kFlag run the code-generic drivers on the Steane code. The
  // Shor cat-retry loop is data-dependent per shot; the batch driver replays
  // it as masked re-replay of the failed lanes.
  const auto& steane = codes::steane();
  const ft::RecoveryPolicy policy;
  const auto shot_fails = [&](uint64_t shot_seed) {
    const auto fails = [](auto&& rec) {
      rec.run_cycle();
      return rec.any_logical_error();
    };
    if (method == RecoveryMethod::kSteane) {
      return fails(ft::SteaneRecovery(noise, policy, shot_seed));
    }
    if (method == RecoveryMethod::kShor) {
      return fails(ft::GenericShorRecovery(steane, noise, policy, shot_seed));
    }
    return fails(universal::FlagRecovery(steane, noise, policy, shot_seed));
  };
  const auto block_fails = [&](uint64_t block_seed, size_t block_shots) {
    const auto failures = [&](auto&& rec) {
      rec.run_cycle();
      return rec.count_any_logical_error(block_shots);
    };
    if (method == RecoveryMethod::kSteane) {
      return failures(
          ft::BatchSteaneRecovery(noise, policy, block_shots, block_seed));
    }
    if (method == RecoveryMethod::kShor) {
      return failures(ft::BatchGenericShorRecovery(steane, noise, policy,
                                                   block_shots, block_seed));
    }
    return failures(universal::BatchFlagRecovery(steane, noise, policy,
                                                 block_shots, block_seed));
  };
  const sim::ShotResult result = runner.run(shot_fails, block_fails);

  CyclePoint point;
  point.eps = eps_gate;
  point.failures = result.proportion();
  point.seconds = result.seconds;
  return point;
}

std::vector<CyclePoint> sweep_cycle_failure(RecoveryMethod method,
                                            const std::vector<double>& eps_values,
                                            size_t shots, uint64_t seed,
                                            sim::ShotEngine engine) {
  std::vector<CyclePoint> points;
  points.reserve(eps_values.size());
  for (size_t i = 0; i < eps_values.size(); ++i) {
    points.push_back(measure_cycle_failure(method, eps_values[i], shots,
                                           seed + 131 * i, 0.0, engine));
  }
  return points;
}

double fit_quadratic_coefficient(const std::vector<CyclePoint>& points) {
  // Least squares for failure = c·ε² (single parameter):
  // c = Σ w f ε² / Σ w ε⁴ with w = trials (binomial weight ~ 1/variance up
  // to the common factor f(1-f) which is nearly constant across the sweep).
  double num = 0, denom = 0;
  for (const auto& p : points) {
    const double w = static_cast<double>(p.failures.trials);
    const double e2 = p.eps * p.eps;
    num += w * p.failures.mean() * e2;
    denom += w * e2 * e2;
  }
  return denom > 0 ? num / denom : 0.0;
}

}  // namespace ftqc::threshold
