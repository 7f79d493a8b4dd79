#pragma once

// The benchmark's four workloads. Each drives the library through the entry
// point a repo bench already calls (E14, E18, RARE), with every seed the
// library sees derived from the workload seed.
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

// One pass over a workload's fixed grid. `counts` holds every integer the
// pass produced (shots, failures, per-point failures, accepted proposals,
// ...): two passes on one seed must agree on all of them, and a traced pass
// must agree with an untraced one on every key the untraced pass reports.
// "cleared_checked" and "lanes_checked" count the shots whose residual
// syndrome and the lanes whose abort mask the pass checked; a check with
// nothing to look at is not reported.
struct PassResult {
  // Wall time of the pass; on an untraced pass, less the time its threads
  // spent in probes, divided over the threads.
  double seconds = 0;
  // Untraced passes: the mean speed of the probes run during the pass
  // (probe.h). 0 on traced passes, which run no probes.
  double probe_speed = 0;
  std::map<std::string, uint64_t> counts;
  // End-to-end outputs: the logical error rate the run estimates and the
  // 95% half-width of that estimate relative to it.
  double logical_error_rate = 0;
  double rel_halfwidth = 0;
  // steane-rare: the stratified estimate at every eps view.
  std::map<std::string, double> estimates;

  [[nodiscard]] uint64_t count(const std::string& key) const {
    const auto it = counts.find(key);
    return it == counts.end() ? 0 : it->second;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One small untraced call per grid point through the same entry point,
  // results discarded: the warm-up a user pays once, part of set-up.
  virtual void warm_up() = 0;
  // One untraced pass through the library's own entry points.
  [[nodiscard]] virtual PassResult run_pass() = 0;
  // The same computation with spans around each public call. Recorded
  // spans hang under one "pass" span.
  [[nodiscard]] virtual PassResult run_traced_pass() = 0;
  // steane-exrec: cycle time of a 64-shot block over a 1024-shot block at
  // the same eps; 0 elsewhere.
  [[nodiscard]] virtual double fixed_cost_frac() { return 0; }
  // Checks a pass's library calls do not report, run outside the timed
  // passes. On toric-2d, whose library call returns only a failure count,
  // the first block of every grid point is rebuilt stage by stage: every
  // lane's correction must clear its syndrome ("uncleared" counts those
  // that do not, out of "cleared_checked") and the block's failures must
  // equal the library's ("mismatched" blocks). Empty elsewhere.
  [[nodiscard]] virtual PassResult run_checks() { return {}; }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// Builds the workload: codes, decoders, detector error models, sweep
// points. With warm_up() this is the set-up the benchmark times.
// `rare_budget_scale` multiplies steane-rare's replay budget (1 = the
// benchmark's own size; larger only to regenerate its reference estimate).
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, uint64_t seed, size_t workers,
    double rare_budget_scale = 1);

}  // namespace perfbench
