// E19: universal gates via magic states, end to end. Three measurements:
//
//  1. The magic-state pipeline on the [[15,1,3]] Reed-Muller code — noisy
//     |T⟩ prep (eps_in = 10x the gate error), flag-verified injection, one
//     15-to-1 distillation round — swept across the gate-error grid. The
//     distilled output infidelity falls as ~O(eps_inj^3) (35 weight-3
//     Hamming codewords survive the four parity checks), and the pipeline
//     pseudothreshold is the eps where distillation stops helping
//     (eps_out / eps_inj crosses 1).
//
//  2. An A/B of the three syndrome-extraction families on the Steane code —
//     flag (2 ancillas/generator), Shor cat (4+1 with verification), Steane
//     block (2x7) — via the cycle-failure pseudothreshold (failure/eps -> 1).
//
//  3. Resource counts: ancilla qubits per generator per family, and the
//     qubit-rounds bill of one distillation attempt.
//
// Every measurement is one point on the work-stealing sweep scheduler, so
// --checkpoint-dir shards and resumes exactly like E18.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/stats.h"
#include "common/table.h"
#include "sim/shot_runner.h"
#include "sim/sweep_scheduler.h"
#include "threshold/pseudothreshold.h"
#include "universal/magic_pipeline.h"

namespace {

using namespace ftqc;

struct GridPoint {
  const char* tag;
  double eps;
  size_t pipeline_attempts;  // full-mode distillation attempts
  size_t cycle_shots;        // full-mode cycle-failure shots per method
};

// Attempts grow toward small eps because eps_out ~ 35 * eps_inj^3 needs the
// statistics; the smallest point may stay unresolved (zero accepted-bad
// events) and is then reported but excluded from the fits. The 1e-4 point
// is cycle-only (pipeline_attempts = 0): it exists to bracket the Steane
// family's crossing, which sits below 3e-4; its pipeline eps_out would need
// billions of attempts.
const std::vector<GridPoint> kGrid = {{"1em4", 1e-4, 0, 400000},
                                      {"3em4", 3e-4, 1048576, 100000},
                                      {"1em3", 1e-3, 524288, 40000},
                                      {"3em3", 3e-3, 131072, 40000},
                                      {"1em2", 1e-2, 65536, 40000},
                                      {"3em2", 3e-2, 32768, 40000}};

// eps_inj above this is past the pipeline's useful regime (the output curve
// saturates toward 1/2); the suppression-exponent fit stays below it.
constexpr double kSuppressionFitCap = 0.1;

// Qubit-rounds of one 15-to-1 attempt: 15 blocks x (15 data + syndrome +
// flag ancilla) x (10 flagged generator extractions + 4 parity checks).
constexpr size_t kPipelineQubitRounds = 15 * 17 * 14;

// Ancilla qubits per weight-4 stabilizer measurement, by family: flag =
// 1 syndrome + 1 flag; Shor = 4-qubit cat + 1 verification; Steane = two
// 7-qubit encoded ancilla blocks (X and Z sides).
constexpr int kFlagAncillas = 2;
constexpr int kShorAncillas = 5;
constexpr int kSteaneAncillas = 14;

sim::SweepMetrics pipeline_metrics(const universal::MagicPipelineStats& s,
                                   double seconds) {
  sim::SweepMetrics m;
  m.add("attempts", static_cast<double>(s.attempts));
  m.add("accepted", static_cast<double>(s.accepted));
  m.add("accepted_bad", static_cast<double>(s.accepted_bad));
  m.add("injections", static_cast<double>(s.injections));
  m.add("injected_bad", static_cast<double>(s.injected_bad));
  m.add("seconds", seconds);
  return m;
}

// Least-squares slope of log(y) on log(x): the measured suppression
// exponent of the distilled-vs-injected infidelity curve (expect ~3).
double loglog_slope(const std::vector<double>& xs,
                    const std::vector<double>& ys) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  size_t n = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] <= 0 || ys[i] <= 0) continue;
    const double lx = std::log(xs[i]), ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++n;
  }
  const double denom = n * sxx - sx * sx;
  return denom > 0 ? (n * sxy - sx * sy) / denom : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  ftqc::bench::init(argc, argv, "E19",
                    {sim::ShotEngine::kFrame, sim::ShotEngine::kBatch});
  const sim::ShotEngine engine =
      ftqc::bench::engine_or(sim::ShotEngine::kBatch);
  std::printf(
      "E19: magic-state pipeline on [[15,1,3]] + flag/Shor/Steane extraction "
      "A/B.\n[engine: %s]\n\n",
      sim::shot_engine_name(engine));
  const size_t div = ftqc::bench::smoke() ? 64 : 1;

  // --- Build the sweep ------------------------------------------------------
  std::vector<sim::SweepPoint> points;
  std::map<std::string, size_t> index;
  const auto add_point =
      [&](std::string id,
          std::function<std::optional<sim::SweepMetrics>()> run) {
        index.emplace(id, points.size());
        points.push_back(sim::SweepPoint{"E19", std::move(id), std::move(run)});
      };
  for (const GridPoint& pt : kGrid) {
    if (pt.pipeline_attempts > 0)
      add_point(std::string("pipe_") + pt.tag,
              [&pt, div]() -> std::optional<sim::SweepMetrics> {
                const auto noise = sim::NoiseParams::uniform_gate(pt.eps);
                // Fixed 8192-lane register; rounds make up the budget. The
                // pipeline is bit-sliced, so the engine flag does not apply
                // here — it steers the cycle-failure A/B below.
                const size_t lanes = std::min<size_t>(8192,
                                                      pt.pipeline_attempts / div);
                const size_t rounds =
                    std::max<size_t>(1, pt.pipeline_attempts / div / lanes);
                universal::MagicStatePipeline pipe(
                    noise, 10 * pt.eps, std::max<size_t>(64, lanes),
                    /*seed=*/9000 + static_cast<uint64_t>(pt.eps * 1e6));
                const auto start = std::chrono::steady_clock::now();
                const auto stats = pipe.run(rounds);
                const double seconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                return pipeline_metrics(stats, seconds);
              });
    const auto add_cycle = [&](const char* method_tag,
                               threshold::RecoveryMethod method) {
      add_point(std::string(method_tag) + "_" + pt.tag,
                [&pt, div, method, engine]() -> std::optional<sim::SweepMetrics> {
                  const auto cp = threshold::measure_cycle_failure(
                      method, pt.eps, pt.cycle_shots / div,
                      /*seed=*/3000 + 131 * static_cast<uint64_t>(pt.eps * 1e6),
                      0.0, engine, /*parallel=*/false);
                  sim::SweepMetrics m;
                  m.add("failures", static_cast<double>(cp.failures.successes));
                  m.add("trials", static_cast<double>(cp.failures.trials));
                  m.add("seconds", cp.seconds);
                  return m;
                });
    };
    add_cycle("flag", threshold::RecoveryMethod::kFlag);
    add_cycle("shor", threshold::RecoveryMethod::kShor);
    add_cycle("steane", threshold::RecoveryMethod::kSteane);
  }

  sim::CheckpointStore store(ftqc::bench::checkpoint_dir());
  const sim::SweepReport report = sim::run_sweep(
      points, ftqc::bench::sweep_options(),
      ftqc::bench::checkpoint_dir().empty() ? nullptr : &store);
  if (!report.finished()) {
    std::printf(
        "E19 sweep checkpointed: %zu done, %zu remaining (rerun with the "
        "same --checkpoint-dir to resume; no BENCH_E19.json written)\n",
        report.completed + report.skipped, report.remaining + report.failed);
    return report.failed > 0 ? 1 : 0;
  }
  const auto metrics_of =
      [&](const std::string& id) -> const sim::SweepMetrics& {
    return *report.results[index.at(id)];
  };

  // --- Pipeline curve -------------------------------------------------------
  ftqc::bench::JsonResult json;
  ftqc::Table pipe_table({"gate eps", "eps_in", "p_accept", "eps_inj",
                          "eps_out", "suppression"});
  std::vector<double> pipe_grid, inj_curve, out_curve, ratio;
  std::vector<double> fit_inj, fit_out;
  for (size_t i = 0; i < kGrid.size(); ++i) {
    if (kGrid[i].pipeline_attempts == 0) continue;
    const auto& m = metrics_of(std::string("pipe_") + kGrid[i].tag);
    universal::MagicPipelineStats s;
    s.attempts = static_cast<uint64_t>(m.at("attempts"));
    s.accepted = static_cast<uint64_t>(m.at("accepted"));
    s.accepted_bad = static_cast<uint64_t>(m.at("accepted_bad"));
    s.injections = static_cast<uint64_t>(m.at("injections"));
    s.injected_bad = static_cast<uint64_t>(m.at("injected_bad"));
    const double eps_inj = s.eps_inj(), eps_out = s.eps_out();
    pipe_grid.push_back(kGrid[i].eps);
    inj_curve.push_back(eps_inj);
    out_curve.push_back(eps_out);
    if (eps_inj > 0 && eps_inj < kSuppressionFitCap && eps_out > 0) {
      fit_inj.push_back(eps_inj);
      fit_out.push_back(eps_out);
    }
    // Only points where BOTH infidelities resolved (>=1 event) enter the
    // threshold fit — an unresolved eps_out would masquerade as perfect.
    ratio.push_back(eps_inj > 0 && eps_out > 0 ? eps_out / eps_inj : 0.0);
    pipe_table.add_row(
        {ftqc::strfmt("%.0e", kGrid[i].eps),
         ftqc::strfmt("%.0e", 10 * kGrid[i].eps),
         ftqc::strfmt("%.3f", s.p_accept()), ftqc::strfmt("%.3e", eps_inj),
         eps_out > 0 ? ftqc::strfmt("%.3e", eps_out) : std::string("<resol"),
         eps_out > 0 && eps_inj > 0 ? ftqc::strfmt("%.1fx", eps_inj / eps_out)
                                    : std::string("-")});
    const size_t pi = pipe_grid.size() - 1;
    json.add(ftqc::strfmt("pipeline_eps_%zu", pi), kGrid[i].eps);
    json.add(ftqc::strfmt("injected_infidelity_%zu", pi), eps_inj);
    json.add(ftqc::strfmt("distilled_infidelity_%zu", pi), eps_out);
    json.add(ftqc::strfmt("pipeline_p_accept_%zu", pi), s.p_accept());
  }
  std::printf("Magic-state pipeline (15-to-1 on [[15,1,3]], eps_in = 10*eps):\n");
  pipe_table.print();

  const double slope = loglog_slope(fit_inj, fit_out);
  const ftqc::UnitCrossing pipe_cross =
      ftqc::loglog_unit_crossing_ex(pipe_grid, ratio);
  json.add("suppression_exponent", slope);
  if (pipe_cross.valid) json.add("threshold_pipeline", pipe_cross.x);
  json.add("threshold_pipeline_extrapolated",
           !pipe_cross.valid || pipe_cross.extrapolated);
  std::printf(
      "\nSuppression exponent (log eps_out / log eps_inj slope): %.2f "
      "(expect ~3)\nPipeline pseudothreshold (eps_out/eps_inj -> 1): eps ~ "
      "%.2e (%s)\n",
      slope, pipe_cross.x,
      pipe_cross.valid && !pipe_cross.extrapolated ? "bracketed"
                                                   : "extrapolated");

  // --- Extraction-family A/B ------------------------------------------------
  ftqc::Table ab_table({"gate eps", "flag P(fail)", "Shor P(fail)",
                        "Steane P(fail)"});
  // Per family, the failure/eps ratio curve of the point estimates and the
  // curves through every point's 95% Wilson lower and upper bounds.
  struct RatioCurves {
    std::vector<double> mid, lower, upper;
  };
  std::vector<double> cycle_grid;
  RatioCurves curves[3];
  for (const GridPoint& pt : kGrid) {
    cycle_grid.push_back(pt.eps);
    double fail[3] = {0, 0, 0};
    const char* tags[3] = {"flag", "shor", "steane"};
    for (int k = 0; k < 3; ++k) {
      const auto& m = metrics_of(std::string(tags[k]) + "_" + pt.tag);
      const ftqc::Proportion p{static_cast<uint64_t>(m.at("failures")),
                               static_cast<uint64_t>(m.at("trials"))};
      fail[k] = p.mean();
      // failure/eps -> 1 is the cycle pseudothreshold (E5 convention).
      curves[k].mid.push_back(fail[k] > 0 ? fail[k] / pt.eps : 0.0);
      // The bound curves fit the points the estimate fits: a point without
      // failures (ratio 0) leaves all three fits, since its upper bound is
      // set by the shot count alone and would bend the upper curve.
      const double center = p.wilson_center();
      const double halfwidth = p.wilson_halfwidth();
      curves[k].lower.push_back(
          fail[k] > 0 ? (center - halfwidth) / pt.eps : 0.0);
      curves[k].upper.push_back(
          fail[k] > 0 ? (center + halfwidth) / pt.eps : 0.0);
    }
    ab_table.add_row({ftqc::strfmt("%.0e", pt.eps),
                      ftqc::strfmt("%.3e", fail[0]),
                      ftqc::strfmt("%.3e", fail[1]),
                      ftqc::strfmt("%.3e", fail[2])});
  }
  std::printf("\nSteane-code recovery-cycle failure by extraction family:\n");
  ab_table.print();

  const ftqc::UnitCrossing flag_cross =
      ftqc::loglog_unit_crossing_ex(cycle_grid, curves[0].mid);
  const ftqc::UnitCrossing shor_cross =
      ftqc::loglog_unit_crossing_ex(cycle_grid, curves[1].mid);
  const ftqc::UnitCrossing steane_cross =
      ftqc::loglog_unit_crossing_ex(cycle_grid, curves[2].mid);
  if (flag_cross.valid) json.add("pseudothreshold_flag", flag_cross.x);
  if (shor_cross.valid) json.add("pseudothreshold_shor", shor_cross.x);
  if (steane_cross.valid) json.add("pseudothreshold_steane", steane_cross.x);
  json.add("pseudothreshold_flag_extrapolated",
           !flag_cross.valid || flag_cross.extrapolated);
  json.add("pseudothreshold_shor_extrapolated",
           !shor_cross.valid || shor_cross.extrapolated);
  json.add("pseudothreshold_steane_extrapolated",
           !steane_cross.valid || steane_cross.extrapolated);
  // The interval of each crossing: a higher failure curve crosses 1 at a
  // smaller eps, so the upper-bound curve gives the interval's low end. A
  // bound is reported only when its curve's crossing is bracketed by the
  // grid: with a handful of failures per point (smoke runs) the bound
  // curves are nearly flat and extrapolate orders of magnitude below it.
  std::printf("\nCycle pseudothreshold (failure/eps -> 1), with the "
              "crossings of the 95%% Wilson bound curves:\n");
  const char* names[3] = {"flag", "shor", "steane"};
  const char* labels[3] = {"flag  ", "Shor  ", "Steane"};
  const ftqc::UnitCrossing* crosses[3] = {&flag_cross, &shor_cross,
                                          &steane_cross};
  const int ancillas[3] = {kFlagAncillas, kShorAncillas, kSteaneAncillas};
  for (int k = 0; k < 3; ++k) {
    const ftqc::UnitCrossing lo =
        ftqc::loglog_unit_crossing_ex(cycle_grid, curves[k].upper);
    const ftqc::UnitCrossing hi =
        ftqc::loglog_unit_crossing_ex(cycle_grid, curves[k].lower);
    const std::string key = std::string("pseudothreshold_") + names[k];
    const auto bound = [&](const ftqc::UnitCrossing& c, const char* suffix) {
      if (!c.valid || c.extrapolated) return std::string("unresolved");
      json.add(key + suffix, c.x);
      return ftqc::strfmt("%.2e", c.x);
    };
    const std::string lo_text = bound(lo, "_lo");
    const std::string hi_text = bound(hi, "_hi");
    std::printf("  %s : eps ~ %.2e [%s, %s] (%s), %d ancillas/generator\n",
                labels[k], crosses[k]->x, lo_text.c_str(), hi_text.c_str(),
                crosses[k]->extrapolated ? "extrapolated" : "bracketed",
                ancillas[k]);
  }

  json.add("flag_ancilla_qubits", kFlagAncillas);
  json.add("shor_ancilla_qubits", kShorAncillas);
  json.add("steane_ancilla_qubits", kSteaneAncillas);
  json.add("pipeline_qubit_rounds", kPipelineQubitRounds);
  json.add_string("engine", sim::shot_engine_name(engine));
  json.write();

  std::printf(
      "\nShape check: the distilled curve falls ~cubically in the injected\n"
      "infidelity — the 15-to-1 round only passes error patterns that are\n"
      "[15,11,3] Hamming codewords, and the lightest ones have weight 3 —\n"
      "until eps_inj gets large enough that distillation consumes more\n"
      "fidelity than it buys (the pipeline pseudothreshold). The flag\n"
      "family's 2-ancilla footprint (vs %d for the verified cat, %d for\n"
      "Steane blocks) costs serialized two-qubit gates instead of ancilla\n"
      "verification, yet its cycle pseudothreshold lands within ~25%% of the\n"
      "cat-based families' — a large hardware saving for a small threshold\n"
      "price, which is why flag circuits displaced cats on small devices.\n",
      kShorAncillas, kSteaneAncillas);
  return 0;
}
