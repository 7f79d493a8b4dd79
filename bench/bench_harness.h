#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "sim/shot_runner.h"
#include "sim/sweep_scheduler.h"

// Shared harness for the E01-E18 paper benchmarks.
//
//   int main(int argc, char** argv) {
//     ftqc::bench::init(argc, argv, "E05");
//     const size_t shots = ftqc::bench::scaled(200000, 500);
//     ...
//     ftqc::bench::JsonResult json;
//     json.add("p_fail", p_fail);
//     json.write();
//   }
//
// `--smoke` (or FTQC_BENCH_SMOKE=1) switches every benchmark to a <=1s
// configuration so CTest's bench-smoke tier catches bit-rot cheaply.
// JsonResult::write() appends one self-describing line to stdout
// (`BENCH_JSON {...}`) and writes a BENCH_<name>.json artifact next to the
// working directory so perf trajectories can be diffed across PRs.
namespace ftqc::bench {

struct Options {
  bool smoke = false;
  std::string name;      // benchmark id, e.g. "E05"
  std::string json_dir;  // defaults to the working directory
  std::string engine;    // --engine value ("" = bench default)
  // Sweep-scheduler controls (benches whose sweeps ride run_sweep honor
  // them; elsewhere they are accepted and unused so run_campaign can pass
  // them uniformly):
  //   --checkpoint-dir=DIR  shard completed points to DIR and resume by
  //                         skipping the ones already present;
  //   --workers=N           scheduler worker threads (0 = auto);
  //   --max-points=N        stop after N fresh points (simulated kill).
  std::string checkpoint_dir;
  size_t workers = 0;
  size_t max_points = 0;
  // Engines this benchmark honors; init() rejects --engine when empty and
  // rejects values outside the set, so the flag can never be silently
  // ignored or crash deep inside a driver.
  std::vector<sim::ShotEngine> supported_engines;
};

inline Options& options() {
  static Options opts;
  return opts;
}

inline bool smoke() { return options().smoke; }

// Pick `full` normally, `smoke_value` under --smoke.
inline size_t scaled(size_t full, size_t smoke_value) {
  return options().smoke ? smoke_value : full;
}

// `supported_engines` lists the engines the benchmark honors via
// engine_or(); benchmarks whose loops have no engine choice leave it empty
// and --engine becomes an unknown-flag error for them.
inline void init(int argc, char** argv, const char* name,
                 std::vector<sim::ShotEngine> supported_engines = {}) {
  Options& opts = options();
  opts.name = name;
  opts.supported_engines = std::move(supported_engines);
  if (const char* env = std::getenv("FTQC_BENCH_SMOKE")) {
    opts.smoke = env[0] != '\0' && env[0] != '0';
  }
  std::string engine_usage;
  for (const sim::ShotEngine e : opts.supported_engines) {
    engine_usage += engine_usage.empty() ? "" : "|";
    engine_usage += sim::shot_engine_name(e);
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      opts.smoke = true;
    } else if (std::strcmp(arg, "--full") == 0) {
      opts.smoke = false;
    } else if (std::strncmp(arg, "--json-dir=", 11) == 0) {
      opts.json_dir = arg + 11;
    } else if (std::strncmp(arg, "--checkpoint-dir=", 17) == 0) {
      opts.checkpoint_dir = arg + 17;
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      opts.workers = parse_count_flag("--workers", arg + 10);
    } else if (std::strncmp(arg, "--max-points=", 13) == 0) {
      opts.max_points = parse_count_flag("--max-points", arg + 13);
    } else if (std::strncmp(arg, "--engine=", 9) == 0 &&
               !opts.supported_engines.empty()) {
      opts.engine = arg + 9;
      const auto parsed = sim::parse_shot_engine(opts.engine);
      const bool supported =
          parsed && std::find(opts.supported_engines.begin(),
                              opts.supported_engines.end(),
                              *parsed) != opts.supported_engines.end();
      if (!supported) {
        std::fprintf(stderr, "unsupported engine: %s (want %s)\n",
                     opts.engine.c_str(), engine_usage.c_str());
        std::exit(2);
      }
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      if (engine_usage.empty()) {
        std::printf("usage: %s [--smoke] [--full] [--json-dir=DIR] "
                    "[--checkpoint-dir=DIR] [--workers=N] [--max-points=N]\n",
                    argv[0]);
      } else {
        std::printf("usage: %s [--smoke] [--full] [--json-dir=DIR] "
                    "[--checkpoint-dir=DIR] [--workers=N] [--max-points=N] "
                    "[--engine=%s]\n",
                    argv[0], engine_usage.c_str());
      }
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg);
      std::exit(2);
    }
  }
  if (opts.smoke) std::printf("[smoke mode: reduced shot counts]\n");
}

// Shot engine requested via --engine (already validated against the
// supported set in init), or `fallback` when the flag is absent.
inline sim::ShotEngine engine_or(sim::ShotEngine fallback) {
  const Options& opts = options();
  if (opts.engine.empty()) return fallback;
  return *sim::parse_shot_engine(opts.engine);
}

// Sweep-scheduler options assembled from the --checkpoint-dir / --workers /
// --max-points flags, for benches whose sweeps ride sim::run_sweep.
inline const std::string& checkpoint_dir() { return options().checkpoint_dir; }
inline sim::SweepOptions sweep_options() {
  sim::SweepOptions sweep;
  sweep.workers = options().workers;
  sweep.max_points = options().max_points;
  return sweep;
}

// Accumulates flat key/value metrics and emits them as one JSON object.
class JsonResult {
 public:
  void add(const std::string& key, double value) {
    char buf[64];
    // %.12g would print bare nan/inf tokens, which are not valid JSON.
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof buf, "%.12g", value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    fields_.emplace_back(key, buf);
  }
  void add(const std::string& key, size_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void add(const std::string& key, int value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void add(const std::string& key, bool value) {
    // Real JSON booleans (the crossover_*_extrapolated flags): tooling can
    // gate numeric comparisons on them without sentinel-value conventions.
    fields_.emplace_back(key, value ? "true" : "false");
  }
  void add_string(const std::string& key, const std::string& value) {
    // Built up in place: GCC 12's -Wrestrict misfires on `"..." + temporary`.
    std::string quoted = "\"";
    quoted += escaped(value);
    quoted += '"';
    fields_.emplace_back(key, std::move(quoted));
  }

  // Serializes {"bench":"E05","smoke":...,<fields>}, prints a BENCH_JSON
  // line, and writes BENCH_<name>.json for machine consumption. A run that
  // cannot write its artifact exits 2 naming the path: run_campaign takes a
  // zero exit as "done", and a done bench without its artifact would be
  // skipped on resume.
  void write() const {
    const Options& opts = options();
    FTQC_CHECK(!opts.name.empty(), "bench::init must run before write()");
    std::string json = "{\"bench\":\"" + escaped(opts.name) + "\"";
    json += ",\"smoke\":";
    json += opts.smoke ? "true" : "false";
    for (const auto& [key, value] : fields_) {
      json += ",\"" + escaped(key) + "\":" + value;
    }
    json += "}";
    std::printf("BENCH_JSON %s\n", json.c_str());
    std::string path = opts.json_dir.empty() ? "" : opts.json_dir + "/";
    path += "BENCH_" + opts.name + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    bool written = out != nullptr &&
                   std::fprintf(out, "%s\n", json.c_str()) >= 0;
    if (out != nullptr && std::fclose(out) != 0) written = false;
    if (!written) {
      std::fprintf(stderr, "error: could not write %s\n", path.c_str());
      std::exit(2);
    }
  }

 private:
  static std::string escaped(const std::string& raw) {
    std::string out;
    for (char c : raw) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace ftqc::bench
