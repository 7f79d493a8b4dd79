// run_campaign: the whole E01-E19 paper benchmark set as ONE invocation on
// the work-stealing sweep scheduler (sim/sweep_scheduler.h).
//
// Each benchmark executable is one sweep point (bench id "CAMPAIGN"): the
// point shells out to the binary with --json-dir pointed at the campaign
// output directory, captures its stdout/stderr to <dir>/logs/<id>.log, and
// checkpoints a BENCH_CAMPAIGN.<id>.json shard on success. A killed
// campaign therefore resumes by skipping the benchmarks that already
// finished — and because every benchmark also receives
// --checkpoint-dir=<dir>/checkpoints and --workers=1, the sweep-driven
// benches (E14, E18) resume mid-sweep from their own shards while the
// campaign scheduler keeps sole ownership of the thread pool.
//
//   run_campaign --smoke --dir=out            # quick pass over everything
//   run_campaign --dir=out --workers=4        # full campaign, 4 benches at
//                                             # a time (each internally
//                                             # serial)
//   run_campaign --dir=out --max-points=5     # run 5 fresh benches, stop
//   run_campaign --dir=out                    # ...later: resumes the rest
//   run_campaign --only=E14,E18 --dir=out     # subset by bench id
//
// Exit status: 0 when every selected benchmark has completed (now or in a
// previous resume), 1 when any benchmark failed, 0 with a "remaining"
// notice when --max-points stopped the run early.
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "sim/sweep_scheduler.h"

namespace {

namespace fs = std::filesystem;
using ftqc::sim::CheckpointStore;
using ftqc::sim::SweepMetrics;
using ftqc::sim::SweepOptions;
using ftqc::sim::SweepPoint;

struct Campaign {
  const char* id;          // sweep-point id and log name, e.g. "E14"
  const char* executable;  // binary name under --bench-dir
  bool optional;           // skip with a notice when the binary is absent
                           // (E17 only builds when google-benchmark exists)
  bool harness;            // uses bench_harness.h flags (--json-dir,
                           // --checkpoint-dir, --workers); E17 does not
};

constexpr Campaign kCampaigns[] = {
    {"E01", "bench_e01_code_fidelity", false, true},
    {"E02", "bench_e02_bad_good_syndrome", false, true},
    {"E03", "bench_e03_cat_verification", false, true},
    {"E04", "bench_e04_syndrome_repeat", false, true},
    {"E05", "bench_e05_recovery_cycle", false, true},
    {"E06", "bench_e06_flow_coefficient", false, true},
    {"E07", "bench_e07_optimal_t", false, true},
    {"E08", "bench_e08_resources", false, true},
    {"E09", "bench_e09_systematic_errors", false, true},
    {"E10", "bench_e10_leakage", false, true},
    {"E11", "bench_e11_anyon_gates", false, true},
    {"E12", "bench_e12_toffoli_gadget", false, true},
    {"E13", "bench_e13_von_neumann", false, true},
    {"E14", "bench_e14_toric_memory", false, true},
    {"E15", "bench_e15_code_comparison", false, true},
    {"E16", "bench_e16_topo_suppression", false, true},
    {"E17", "bench_e17_kernels", true, false},
    {"E18", "bench_e18_concatenation_gain", false, true},
    {"E19", "bench_e19_magic_pipeline", false, true},
    {"E20", "bench_e20_erasure_bias", false, true},
    {"BATCHSIM", "bench_batch_sim", false, true},
    {"DECODE", "bench_decode_matching", false, true},
    {"RARE", "bench_rare_event", false, true},
};

struct Args {
  std::string dir = "campaign_out";
  std::string bench_dir;  // defaults to <argv0 dir>/../bench
  std::string only;       // comma-separated ids; empty = all
  bool smoke = false;
  // Robustness knobs: each bench runs under `timeout` (0 disables) and a
  // failed or timed-out bench gets exactly one more attempt after a
  // backoff. A bench that fails twice is reported at the end; the rest of
  // the campaign keeps running either way.
  size_t timeout_secs = 3600;
  size_t backoff_secs = 5;
  SweepOptions sweep;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--smoke] [--dir=DIR] [--bench-dir=DIR] [--only=E14,E18]\n"
      "          [--workers=N] [--max-points=N] [--timeout=SECS]\n"
      "          [--backoff=SECS]\n"
      "Runs the E01-E19 benchmark set (plus the micro-benches) as one\n"
      "checkpointed sweep; rerun with the same --dir to resume.\n"
      "Each bench is killed after --timeout seconds (default 3600, 0 = no\n"
      "limit) and retried once after --backoff seconds; a bench that fails\n"
      "twice is reported in the summary without stopping the campaign.\n",
      argv0);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strncmp(arg, "--dir=", 6) == 0) {
      args.dir = arg + 6;
    } else if (std::strncmp(arg, "--bench-dir=", 12) == 0) {
      args.bench_dir = arg + 12;
    } else if (std::strncmp(arg, "--only=", 7) == 0) {
      args.only = arg + 7;
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      args.sweep.workers = ftqc::parse_count_flag("--workers", arg + 10);
    } else if (std::strncmp(arg, "--max-points=", 13) == 0) {
      args.sweep.max_points = ftqc::parse_count_flag("--max-points", arg + 13);
    } else if (std::strncmp(arg, "--timeout=", 10) == 0) {
      args.timeout_secs = ftqc::parse_count_flag("--timeout", arg + 10);
    } else if (std::strncmp(arg, "--backoff=", 10) == 0) {
      args.backoff_secs = ftqc::parse_count_flag("--backoff", arg + 10);
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg);
      std::exit(2);
    }
  }
  if (args.bench_dir.empty()) {
    args.bench_dir = (fs::path(argv[0]).parent_path() / ".." / "bench")
                         .lexically_normal()
                         .string();
  }
  return args;
}

bool selected(const std::string& only, const char* id) {
  if (only.empty()) return true;
  size_t start = 0;
  while (start <= only.size()) {
    const size_t comma = only.find(',', start);
    const size_t end = comma == std::string::npos ? only.size() : comma;
    if (only.compare(start, end - start, id) == 0) return true;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return false;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  fs::create_directories(fs::path(args.dir) / "logs");
  const std::string checkpoint_dir =
      (fs::path(args.dir) / "checkpoints").string();

  std::vector<SweepPoint> points;
  std::vector<std::string> missing;
  std::vector<std::string> failed_twice;
  std::mutex failed_mutex;
  for (const Campaign& c : kCampaigns) {
    if (!selected(args.only, c.id)) continue;
    const fs::path binary = fs::path(args.bench_dir) / c.executable;
    if (!fs::exists(binary)) {
      if (c.optional) {
        std::fprintf(stderr, "[campaign] %s: %s not built, skipping\n", c.id,
                     binary.string().c_str());
      } else {
        missing.push_back(binary.string());
      }
      continue;
    }
    std::string cmd;
    if (args.timeout_secs > 0) {
      // coreutils `timeout` kills the bench process group; exit 124 marks
      // the timeout so the retry log can say which failure mode it was.
      cmd += "timeout " + std::to_string(args.timeout_secs) + " ";
    }
    cmd += quoted(binary.string());
    if (args.smoke) cmd += " --smoke";
    if (c.harness) {
      cmd += " --json-dir=" + quoted(args.dir);
      // The campaign scheduler owns all parallelism; the sweep-driven
      // benches run their own points serially but still shard per-point
      // checkpoints, so a mid-bench kill resumes too.
      cmd += " --checkpoint-dir=" + quoted(checkpoint_dir);
      cmd += " --workers=1";
    }
    const std::string log =
        (fs::path(args.dir) / "logs" / (std::string(c.id) + ".log")).string();
    SweepPoint point;
    point.bench = "CAMPAIGN";
    point.id = c.id;
    point.run = [cmd, log, id = std::string(c.id), &args, &failed_twice,
                 &failed_mutex]() -> std::optional<SweepMetrics> {
      for (int attempt = 0; attempt < 2; ++attempt) {
        // The retry appends to the log so the first attempt's tail (the
        // crash or the timeout cutoff) stays diagnosable.
        const std::string redirected =
            cmd + (attempt == 0 ? " > " : " >> ") + quoted(log) + " 2>&1";
        const int status = std::system(redirected.c_str());
        if (status == 0) {
          SweepMetrics metrics;
          metrics.add("exit_code", 0.0);
          metrics.add("attempts", static_cast<double>(attempt + 1));
          return metrics;
        }
        const bool timed_out =
            WIFEXITED(status) && WEXITSTATUS(status) == 124 &&
            args.timeout_secs > 0;
        if (attempt == 0) {
          std::fprintf(stderr,
                       "[campaign] %s: %s on attempt 1, retrying in %zus\n",
                       id.c_str(), timed_out ? "timed out" : "failed",
                       args.backoff_secs);
          std::this_thread::sleep_for(
              std::chrono::seconds(args.backoff_secs));
        } else {
          const std::lock_guard<std::mutex> lock(failed_mutex);
          failed_twice.push_back(id + (timed_out ? " (timeout)" : ""));
        }
      }
      return std::nullopt;  // failed twice: do not checkpoint
    };
    points.push_back(std::move(point));
  }
  for (const std::string& path : missing) {
    std::fprintf(stderr, "[campaign] missing benchmark binary: %s\n",
                 path.c_str());
  }
  if (points.empty() && missing.empty()) {
    std::fprintf(stderr, "[campaign] nothing selected (--only=%s)\n",
                 args.only.c_str());
    return 2;
  }

  CheckpointStore store(checkpoint_dir);
  const auto report = ftqc::sim::run_sweep(points, args.sweep, &store);

  std::printf("\ncampaign summary (%s):\n", args.smoke ? "smoke" : "full");
  for (size_t i = 0; i < points.size(); ++i) {
    // A null result is either a failure or a point --max-points never
    // reached; the [sweep] stderr log names the failures.
    std::printf("  %-10s %s\n", points[i].id.c_str(),
                report.results[i].has_value() ? "done" : "incomplete");
  }
  std::printf(
      "completed %zu, resumed-from-checkpoint %zu, failed %zu, remaining "
      "%zu (%.1fs); artifacts in %s\n",
      report.completed, report.skipped, report.failed, report.remaining,
      report.seconds, args.dir.c_str());
  if (!failed_twice.empty()) {
    std::printf("failed twice (see %s/logs/<id>.log):\n", args.dir.c_str());
    for (const std::string& id : failed_twice) {
      std::printf("  %s\n", id.c_str());
    }
  }
  if (report.remaining > 0) {
    std::printf("rerun with the same --dir to resume the remaining %zu\n",
                report.remaining);
  }
  return (report.failed > 0 || !missing.empty()) ? 1 : 0;
}
