// perfbench: one process runs one workload for a fixed wall-clock budget and
// prints a single JSON report line (counts, checks, metrics, provenance).
// perfbench/run.py builds this binary, adds the reference checks and prints
// the benchmark's result line.
//
//   perfbench --workload toric-2d --seed 11 --seconds 10 --trace 0
//
// --trace 0 times untraced passes through the library's entry points and
// reports the end-to-end metrics; --trace 1 alternates untraced passes with
// traced ones and reports the per-layer metrics. --setup-only sets the
// workload up, runs one machine-speed probe, prints
// {"setup_s": ..., "probe_speed": ...} and exits; an untraced run starts
// such fresh processes of itself between its passes, so its set-up time is
// sampled throughout the run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "probe.h"
#include "sim/simd.h"
#include "trace.h"
#include "workloads.h"

#ifdef _OPENMP
#include <omp.h>
#endif

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

// Taken during static initialisation, before main: set-up time runs from
// process start.
const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(values[i]);
  }
  out += ']';
  return out;
}

// Flat JSON object writer; values are numbers, strings or pre-built JSON.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += json_string(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject out;
  for (const Metric& m : metrics) {
    out.raw(m.name, JsonObject().num("value", m.value).str("unit", m.unit).str());
  }
  return out.str();
}

// Peak resident set of this process image. VmHWM restarts at exec, unlike
// getrusage's ru_maxrss, which keeps the forking parent's peak.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(status);
  return kb / 1024.0;
}

// One process's set-up time and the speed of the probe run right after it.
struct SetUp {
  double seconds;
  double probe_speed;
};

// The number following `key` in `json`.
double number_after(const std::string& json, const std::string& key) {
  const size_t at = json.find(key);
  if (at == std::string::npos) {
    throw std::runtime_error("set-up process printed no " + key);
  }
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

// What a fresh `perfbench ... --setup-only` process reports.
SetUp fresh_setup(const std::string& exe, std::vector<std::string> args) {
  args.insert(args.begin(), exe);
  args.emplace_back("--setup-only");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t n = 0;
  while (spawned == 0 && (n = read(fds[0], buf, sizeof buf)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up process failed");
  }
  return {number_after(out, "\"setup_s\":"),
          number_after(out, "\"probe_speed\":")};
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  double rare_budget_scale = 1;
  std::string trace_file;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "[--seconds S] [--trace 0|1] [--trace-file PATH] [--setup-only] "
               "[--rare-budget-scale X]\n",
               message);
  std::exit(2);
}

uint64_t parse_uint(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage((std::string("bad value for ") + flag + ": " + text).c_str());
  }
  return v;
}

double parse_positive(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0) || !std::isfinite(v)) {
    usage((std::string(flag) + " must be a positive number").c_str());
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_uint("--seed", value);
      o.seed_set = true;
    } else if (flag == "--seconds") {
      o.seconds = parse_positive("--seconds", value);
    } else if (flag == "--rare-budget-scale") {
      o.rare_budget_scale = parse_positive("--rare-budget-scale", value);
    } else if (flag == "--trace") {
      const uint64_t t = parse_uint("--trace", value);
      if (t > 1) usage("--trace must be 0 or 1");
      o.trace = t == 1;
    } else if (flag == "--trace-file") {
      o.trace_file = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage(("unknown workload '" + o.workload + "'").c_str());
  }
  if (!o.seed_set) usage("--seed is required");
  if (o.rare_budget_scale != 1 && o.workload != "steane-rare") {
    usage("--rare-budget-scale applies to steane-rare only");
  }
  return o;
}

// Per-layer metrics of one traced pass. `fixed_cost` is measured once per
// run (steane-exrec only).
std::vector<Metric> layer_metrics(const TraceSummary& t, const PassResult& r,
                                  const PassResult& checked, size_t workers,
                                  double fixed_cost) {
  const double shots = static_cast<double>(r.count("shots"));
  const auto rate = [](double work, double seconds) {
    return seconds > 0 ? work / seconds : 0.0;
  };
  const auto us = [](double s) { return 1e6 * s; };
  const auto& match = t.stage("decode.match");
  const auto& frames = t.stage("sim.frames");
  const auto& extract = t.stage("topo.extract");
  const auto& replay = t.stage("ft.replay");
  const auto& cycle = t.stage("ft.replay.cycle");
  const auto& pass = t.stage("pass");
  const auto& points = t.stage("sim.sweep.point");
  const bool toric = match.count > 0;
  const double idle =
      points.count > 0 ? 1 - points.total_s / (static_cast<double>(workers) *
                                               pass.total_s)
                       : 0;
  // toric-2d samples 64-lane words, one syndrome round per shot; the
  // circuit workload extracts T = L rounds per shot on the serial engine.
  const double lanes = 64.0 * static_cast<double>(frames.count);
  const double rounds = static_cast<double>(r.count("extract_rounds"));
  const double accepted = static_cast<double>(r.count("accepted"));
  return {
      {"decode.match.busy_frac", t.share("decode.match"), "fraction"},
      {"decode.match.shots_per_s", toric ? rate(shots, match.total_s) : 0,
       "shots/s"},
      {"decode.match.p50_us", us(percentile(match.durations_s, 0.50)), "us"},
      {"decode.match.p99_us", us(percentile(match.durations_s, 0.99)), "us"},
      {"decode.match.defects_per_shot",
       toric && shots > 0 ? static_cast<double>(r.count("defects")) / shots : 0,
       "defects/shot"},
      {"decode.match.uncleared",
       static_cast<double>(r.count("uncleared") + checked.count("uncleared")),
       "count"},
      {"sim.frames.busy_frac", t.share("sim.frames"), "fraction"},
      {"sim.frames.lanes_per_s", rate(lanes, frames.total_s), "lanes/s"},
      {"topo.extract.busy_frac", t.share("topo.extract"), "fraction"},
      {"topo.extract.rounds_per_s", rate(rounds, extract.total_s), "rounds/s"},
      {"ft.replay.busy_frac", t.share("ft.replay"), "fraction"},
      {"ft.replay.ms_per_block", 1e3 * median(cycle.durations_s), "ms"},
      {"ft.replay.fixed_cost_frac", fixed_cost, "fraction"},
      {"ft.replay.ctor_frac", t.share("ft.replay.ctor"), "fraction"},
      {"ft.replay.p50_us", us(percentile(replay.durations_s, 0.50)), "us"},
      {"ft.replay.p99_us", us(percentile(replay.durations_s, 0.99)), "us"},
      {"ft.rare.acceptance", rate(accepted, shots), "fraction"},
      {"ft.rare.self_frac", t.share("ft.rare"), "fraction"},
      {"sim.sweep.idle_frac", idle, "fraction"},
      {"sim.sweep.self_frac", t.share("sim.sweep"), "fraction"},
  };
}

std::string counts_json(const PassResult& r) {
  JsonObject out;
  for (const auto& [key, value] : r.counts) out.raw(key, std::to_string(value));
  return out.str();
}

// Counts on `keys_of`'s keys must be equal in `other`.
bool same_counts(const PassResult& keys_of, const PassResult& other) {
  for (const auto& [key, value] : keys_of.counts) {
    if (other.count(key) != value) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // Two sweep workers: on a four-core machine that leaves room for the
  // system, which keeps pass times steadier than four workers do.
  const size_t workers =
      std::min<size_t>(2, std::max(1u, std::thread::hardware_concurrency()));
#ifdef _OPENMP
  // All parallelism lives in the sweep scheduler's pool; the rare-event
  // engine (which would otherwise fan replays out over OpenMP) runs on one
  // thread.
  omp_set_num_threads(1);
#endif

  try {
    // Set-up: codes, decoders, DEMs, then the warm-up, timed from process
    // start to the first timed pass.
    const std::unique_ptr<Workload> workload = make_workload(
        opt.workload, opt.seed, workers, opt.rare_budget_scale);
    workload->warm_up();
    // The probe after the set-up scales it to the reference speed, as
    // shots_per_s is scaled (probe.h).
    std::vector<SetUp> setups = {{seconds_since(kProcessStart), probe_speed()}};
    if (opt.setup_only) {
      std::printf("%s\n", JsonObject()
                               .num("setup_s", setups[0].seconds)
                               .num("probe_speed", setups[0].probe_speed)
                               .str()
                               .c_str());
      return 0;
    }
    char exe[4096];
    const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (exe_len <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
    exe[exe_len] = '\0';
    const std::vector<std::string> setup_args = {
        "--workload", opt.workload, "--seed", std::to_string(opt.seed),
        "--rare-budget-scale", json_number(opt.rare_budget_scale)};

    std::vector<PassResult> passes, traced;
    std::vector<TraceSummary> summaries;
    std::vector<SpanRecord> last_spans;
    // Another pass starts only while it is expected to end within --seconds
    // of pass time (at the mean pace so far); the first always runs. The
    // fresh set-ups between passes come on top, so that on steane-rare,
    // whose passes take 8-12 s, they never cost a run one of its two or
    // three passes.
    const auto measure_start = Clock::now();
    double setup_wall = 0;
    const auto time_left = [&] {
      const double elapsed = seconds_since(measure_start) - setup_wall;
      return elapsed * (1.0 + 1.0 / static_cast<double>(passes.size())) <=
             opt.seconds;
    };
    double peak_rss = 0;
    do {
      passes.push_back(workload->run_pass());
      // Fresh set-ups between passes, about one per second of pass, so
      // set-up is sampled throughout the run and not only at its start.
      const long fresh =
          opt.trace ? 0 : std::max(1L, std::lround(passes.back().seconds));
      const auto setups_start = Clock::now();
      for (long i = 0; i < fresh; ++i) {
        setups.push_back(fresh_setup(exe, setup_args));
      }
      setup_wall += seconds_since(setups_start);
      // Later passes add only allocator fragmentation, and their number
      // depends on the machine's pace.
      if (passes.size() == 1) peak_rss = peak_rss_mb();
      if (opt.trace) {
        reset_trace();
        traced.push_back(workload->run_traced_pass());
        last_spans = collect_trace();
        summaries.push_back(summarize_trace(last_spans, "pass"));
      }
    } while (time_left());
    const PassResult checked = workload->run_checks();

    const PassResult& first = passes.front();
    uint64_t attempted = checked.count("cleared_checked");
    uint64_t failed = checked.count("uncleared");
    for (const auto* list : {&passes, &traced}) {
      for (const PassResult& r : *list) {
        attempted += r.count("points") + r.count("shots");
        failed += r.count("failed_points") + r.count("uncleared") +
                  r.count("aborted");
      }
    }
    bool deterministic = true;
    for (const PassResult& r : passes) {
      deterministic = deterministic && r.counts == first.counts;
    }
    bool trace_matches = true;
    for (const PassResult& r : traced) {
      trace_matches = trace_matches && same_counts(first, r) &&
                      r.counts == traced.front().counts;
    }
    const PassResult& counted = opt.trace ? traced.front() : first;

    // Each untraced pass's wall rate, and the same scaled from its probes'
    // speed to the reference speed (probe.h).
    std::vector<double> rates, speeds, scaled;
    for (const PassResult& r : passes) {
      rates.push_back(static_cast<double>(r.count("shots")) / r.seconds);
      speeds.push_back(r.probe_speed);
      scaled.push_back(rates.back() * kReferenceProbeSpeed / r.probe_speed);
    }
    std::vector<double> setup_s, setup_speeds, setup_scaled;
    for (const SetUp& setup : setups) {
      setup_s.push_back(setup.seconds);
      setup_speeds.push_back(setup.probe_speed);
      setup_scaled.push_back(setup.seconds * setup.probe_speed /
                             kReferenceProbeSpeed);
    }
    std::vector<Metric> metrics;
    if (!opt.trace) {
      metrics = {
          {"shots_per_s", median(scaled), "shots/s"},
          {"logical_error_rate", first.logical_error_rate, "fraction"},
          {"rel_halfwidth", first.rel_halfwidth, "fraction"},
          {"setup_s", median(setup_scaled), "s"},
          {"peak_rss_mb", peak_rss, "MB"},
      };
    } else {
      // Element-wise medians over the traced passes.
      const double fixed_cost = workload->fixed_cost_frac();
      std::vector<std::vector<Metric>> per_pass;
      for (size_t i = 0; i < traced.size(); ++i) {
        per_pass.push_back(layer_metrics(summaries[i], traced[i], checked,
                                         workers, fixed_cost));
      }
      metrics = per_pass.front();
      for (size_t m = 0; m < metrics.size(); ++m) {
        std::vector<double> values;
        for (const auto& pass : per_pass) values.push_back(pass[m].value);
        metrics[m].value = median(values);
      }
      std::vector<double> walls, traced_walls;
      for (const PassResult& r : passes) walls.push_back(r.seconds);
      for (const PassResult& r : traced) traced_walls.push_back(r.seconds);
      metrics.push_back({"trace.overhead_frac",
                         median(traced_walls) / median(walls) - 1, "fraction"});
      if (!opt.trace_file.empty() &&
          !write_trace_csv(last_spans, opt.trace_file)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.trace_file.c_str());
        return 1;
      }
    }

    // A check is reported only where something was checked: residual
    // syndromes on the toric workloads (every toric-circuit shot, a sample
    // of toric-2d blocks), abort masks on steane-exrec.
    const auto verdict = [](bool ok) { return ok ? "true" : "false"; };
    JsonObject checks;
    checks.raw("passes_deterministic", verdict(deterministic));
    checks.raw("no_failed_points",
               verdict(counted.count("failed_points") == 0));
    if (counted.count("cleared_checked") + checked.count("cleared_checked") >
        0) {
      checks.raw("all_shots_cleared",
                 verdict(counted.count("uncleared") +
                             checked.count("uncleared") ==
                         0));
    }
    if (checked.count("cleared_checked") > 0) {
      checks.raw("staged_pipeline_matches_library",
                 verdict(checked.count("mismatched") == 0));
    }
    if (counted.count("lanes_checked") > 0) {
      checks.raw("no_aborted_lanes", verdict(counted.count("aborted") == 0));
    }
    if (opt.trace) checks.raw("trace_matches_untraced", verdict(trace_matches));

    JsonObject estimates;
    for (const auto& [key, value] : first.estimates) estimates.num(key, value);
    // Span count and share of busy time of every stage of the last traced
    // pass: the breakdown the per-layer metrics are drawn from.
    JsonObject stages;
    if (!summaries.empty()) {
      const TraceSummary& last = summaries.back();
      for (const auto& [name, stage] : last.stages) {
        stages.raw(name, JsonObject()
                             .num("spans", static_cast<double>(stage.count))
                             .num("self_frac", stage.self_s / last.busy_s)
                             .str());
      }
    }
    std::vector<double> pass_seconds;
    for (const PassResult& r : passes) pass_seconds.push_back(r.seconds);

    JsonObject provenance;
    provenance.str("compiler", PERFBENCH_COMPILER)
        .str("cxx_flags", PERFBENCH_CXX_FLAGS)
        .str("simd_level",
             ftqc::sim::simd::level_name(ftqc::sim::simd::active_level()))
        .num("nproc", std::thread::hardware_concurrency())
        .num("workers", static_cast<double>(workers))
        .raw("seed", std::to_string(opt.seed))
        .num("seconds", opt.seconds)
        .num("rare_budget_scale", opt.rare_budget_scale);

    JsonObject report;
    report.str("workload", opt.workload)
        .raw("seed", std::to_string(opt.seed))
        .num("trace", opt.trace ? 1 : 0)
        .raw("attempted", std::to_string(attempted))
        .raw("failed", std::to_string(failed))
        .raw("counts", counts_json(counted))
        .raw("estimates", estimates.str())
        .raw("checks", checks.str())
        .raw("metrics", metrics_json(metrics))
        .num("wall_shots_per_s", median(rates))
        .num("probe_speed", median(speeds))
        .num("reference_probe_speed", kReferenceProbeSpeed)
        .raw("pass_seconds", json_array(pass_seconds))
        .raw("setup_seconds", json_array(setup_s))
        .raw("setup_probe_speeds", json_array(setup_speeds))
        .num("traced_passes", static_cast<double>(traced.size()))
        .raw("trace_stages", stages.str())
        .raw("provenance", provenance.str());
    std::printf("%s\n", report.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
