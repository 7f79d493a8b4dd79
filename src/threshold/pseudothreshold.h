#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "ft/recovery.h"
#include "sim/noise_model.h"
#include "sim/shot_runner.h"

namespace ftqc::threshold {

// Circuit-level Monte Carlo for the level-1 pseudothreshold (E5): run one
// fault-tolerant recovery cycle of the chosen method on a clean block under
// the uniform gate-error model and report the logical failure probability
// after an ideal final decode. The pseudothreshold is the ε where the
// encoded cycle stops beating a bare physical gate (failure = ε).
// kFlag is the flag-qubit extraction family (universal/flag_recovery.h) on
// the Steane code: two ancillas per generator instead of the verified cat.
enum class RecoveryMethod { kSteane, kShor, kFlag };

struct CyclePoint {
  double eps = 0;
  Proportion failures;
  // Wall-clock of the shot loop, for the BENCH_*.json trend artifacts.
  double seconds = 0;
  [[nodiscard]] double shots_per_sec() const {
    return seconds > 0 ? static_cast<double>(failures.trials) / seconds : 0.0;
  }
};

// One sweep point, driven by a ShotRunner. Engine selection:
//  * kFrame — one serial FrameSim recovery per shot (OpenMP over shots);
//  * kBatch — the 64-shot-per-word twin of each driver (OpenMP over
//    blocks). The Shor cat-retry loop is data-dependent per shot; the batch
//    driver replays it as masked re-replay of failed lanes.
// kShor and kFlag run the code-generic drivers on codes::steane().
// `parallel = false` opts the shot loop out of OpenMP — sweep-scheduler
// points do this because the worker pool already owns all parallelism.
[[nodiscard]] CyclePoint measure_cycle_failure(
    RecoveryMethod method, double eps_gate, size_t shots, uint64_t seed,
    double eps_store = 0.0, sim::ShotEngine engine = sim::ShotEngine::kFrame,
    bool parallel = true);

// Sweep a list of ε values.
[[nodiscard]] std::vector<CyclePoint> sweep_cycle_failure(
    RecoveryMethod method, const std::vector<double>& eps_values, size_t shots,
    uint64_t seed, sim::ShotEngine engine = sim::ShotEngine::kFrame);

// Quadratic-fit coefficient c from failure = c·ε² (least squares through the
// sweep points, weighted by shots); 1/c estimates the pseudothreshold.
[[nodiscard]] double fit_quadratic_coefficient(const std::vector<CyclePoint>& points);

}  // namespace ftqc::threshold
