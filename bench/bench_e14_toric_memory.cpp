// E14 (§7.1-7.2): topological memory, decoder A/B/C. The toric code stores
// two logical qubits in the torus homology; below a decoder-dependent
// threshold the logical failure rate falls exponentially with lattice size —
// Kitaev's "intrinsically fault-tolerant hardware". Three decoders from
// src/decode compete on the same noise:
//   greedy     — closest-pair matching, perfect measurement (threshold ~8%)
//   mwpm       — minimum-weight perfect matching, perfect measurement
//                (optimal matching reaches ~10.3%)
//   space-time — MWPM over 3D (site, round) defects: T = L rounds of FAULTY
//                syndrome extraction (measured bits flip at q = p), the
//                phenomenological-noise workload (threshold ~3%).
// Each sweep's L-small vs L-large failure ratio is extrapolated to its
// crossing, and the threshold estimates land in BENCH_E14.json for the CI
// trend step.
//
// The whole decoder x lattice x p matrix runs on the work-stealing sweep
// scheduler (sim/sweep_scheduler.h): one point per (decoder, L, p) cell,
// each with its legacy per-cell seed so the measured values match the
// pre-scheduler sweep bit for bit. Under --checkpoint-dir every completed
// cell shards to BENCH_E14.<id>.json and a killed run resumes from the
// shards; --max-points simulates the kill.
#include <cstdio>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "decode/batch_decode.h"
#include "decode/blossom.h"
#include "decode/dem.h"
#include "decode/matching.h"
#include "decode/spacetime.h"
#include "sim/shot_runner.h"
#include "sim/sweep_scheduler.h"
#include "topo/toric_code.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using namespace ftqc;

// 2D memory shot: iid X noise, one perfect syndrome snapshot decoded as a
// one-round trusted history, check the residual against both logical Z loops.
bool memory_shot_2d(const decode::SpacetimeToricDecoder& dec, double p,
                    Rng& rng) {
  const topo::ToricCode& code = dec.code();
  gf2::BitVec errors(code.num_qubits());
  for (size_t e = 0; e < code.num_qubits(); ++e) {
    if (rng.bernoulli(p)) errors.set(e, true);
  }
  gf2::BitVec residual = errors;
  residual ^= dec.decode({code.plaquette_syndrome(errors)});
  const auto [f1, f2] = code.logical_x_flips(residual);
  return f1 || f2;
}

// All Monte Carlo loops ride ShotRunner: kFrame runs one seeded serial shot
// per index; kBatch hands each block to the batched pipeline — BatchFrameSim
// sampling, bit-sliced syndrome extraction, and decode_lanes over 64 packed
// shots per word — so the batch engine is batched end-to-end, decode
// included. parallel = false: the sweep scheduler's worker pool owns all
// parallelism, so the per-point shot loop stays serial (and
// schedule-independent). Returns the full Proportion rather than a bare rate
// so the threshold fit can tell "0 failures in n shots" apart from "never
// measured".
Proportion failure_rate_2d(const decode::SpacetimeToricDecoder& dec, double p,
                           size_t shots, uint64_t seed,
                           sim::ShotEngine engine) {
  sim::ShotPlan plan;
  plan.shots = shots;
  plan.seed = seed;
  plan.seed_stride = 7;
  plan.engine = engine;
  plan.parallel = false;
  const sim::ShotRunner runner(plan);
  const auto result = runner.run(
      [&](uint64_t shot_seed) {
        Rng rng(shot_seed);
        return memory_shot_2d(dec, p, rng);
      },
      [&](uint64_t block_seed, size_t n) {
        return decode::batch_memory_2d_failures(dec, p, n, block_seed);
      });
  return result.proportion();
}

Proportion failure_rate_spacetime(const decode::SpacetimeToricDecoder& dec,
                                  double p, size_t rounds, size_t shots,
                                  uint64_t seed, sim::ShotEngine engine) {
  sim::ShotPlan plan;
  plan.shots = shots;
  plan.seed = seed;
  plan.seed_stride = 7;
  plan.engine = engine;
  plan.parallel = false;
  const sim::ShotRunner runner(plan);
  const auto result = runner.run(
      [&](uint64_t shot_seed) {
        return decode::run_phenomenological_memory(dec, p, p, rounds, shot_seed)
            .logical_fail;
      },
      [&](uint64_t block_seed, size_t n) {
        Rng rng(block_seed);
        decode::PhenomenologicalScratch scratch;
        uint64_t fails = 0;
        for (size_t i = 0; i < n; ++i) {
          fails += decode::run_phenomenological_memory(dec, p, p, rounds,
                                                      rng.next_u64(), &scratch)
                       .logical_fail
                       ? 1
                       : 0;
        }
        return fails;
      });
  return result.proportion();
}

// Circuit-level memory: every extraction-circuit location (prep, CNOT,
// storage, readout) faults at rate eps, and the decoder carries the DEM's
// -log p weights instead of the phenomenological unit metric.
Proportion failure_rate_circuit(const decode::SpacetimeToricDecoder& dec,
                                double eps, size_t rounds, size_t shots,
                                uint64_t seed, sim::ShotEngine engine) {
  sim::ShotPlan plan;
  plan.shots = shots;
  plan.seed = seed;
  plan.seed_stride = 7;
  plan.engine = engine;
  plan.parallel = false;
  const sim::ShotRunner runner(plan);
  const auto result = runner.run(
      [&](uint64_t shot_seed) {
        return decode::run_circuit_memory(dec, eps, rounds, shot_seed)
            .logical_fail;
      },
      [&](uint64_t block_seed, size_t n) {
        Rng rng(block_seed);
        decode::PhenomenologicalScratch scratch;
        uint64_t fails = 0;
        for (size_t i = 0; i < n; ++i) {
          fails += decode::run_circuit_memory(dec, eps, rounds, rng.next_u64(),
                                              &scratch)
                       .logical_fail
                       ? 1
                       : 0;
        }
        return fails;
      });
  return result.proportion();
}

const char* trend_label(double f_small, double f_mid, double f_large) {
  if (f_large < f_mid && f_mid < f_small) return "bigger is better";
  if (f_large > f_mid && f_mid > f_small) return "bigger is WORSE";
  return "crossover";
}

}  // namespace

int main(int argc, char** argv) {
  ftqc::bench::init(argc, argv, "E14",
                    {sim::ShotEngine::kFrame, sim::ShotEngine::kBatch});
  const sim::ShotEngine engine = ftqc::bench::engine_or(sim::ShotEngine::kBatch);
  using ftqc::topo::ToricCode;
  std::printf(
      "E14: toric-code memory, decoder A/B/C sweep (greedy vs MWPM vs 3D\n"
      "space-time MWPM under faulty syndrome measurement). Rows: physical\n"
      "error rate p; columns: lattice size L (2L^2 qubits). [engine: %s]\n\n",
      sim::shot_engine_name(engine));

  const size_t shots = ftqc::bench::scaled(4000, 300);
  const size_t shots_st = ftqc::bench::scaled(2500, 150);
  const ToricCode code4(4), code6(6), code8(8);
  const ToricCode* const codes[] = {&code4, &code6, &code8};
  constexpr size_t kL[] = {4, 6, 8};
  // Legacy per-lattice seeds, kept so the scheduler port reproduces the
  // hand-rolled sweep's values exactly (the compare_bench trend would read
  // a reseed as accuracy drift).
  constexpr uint64_t kSeed2d[] = {11, 13, 17};

  const auto greedy = std::make_shared<const decode::GreedyMatching>();
  // The "mwpm" contender is the blossom matcher: an exact minimum-weight
  // perfect matching at ANY defect count, so the high-p / large-L points get
  // the true optimum (optimal matching's threshold is ~0.103).
  const auto mwpm = std::make_shared<const decode::BlossomMatching>();
  struct Strategy {
    const char* key;  // sweep-point id component
    const char* label;
    const char* json_suffix;
    std::shared_ptr<const decode::MatchingStrategy> matching;
  };
  const std::vector<Strategy> strategies = {
      {"greedy", "greedy matching", "", greedy},
      {"mwpm", "minimum-weight perfect matching (blossom)", "_mwpm", mwpm},
  };
  const std::vector<double> p_grid = {0.12, 0.11, 0.10, 0.09, 0.08,
                                      0.07, 0.06, 0.04, 0.02};
  const std::vector<double> st_grid = {0.05, 0.04, 0.032, 0.026,
                                       0.02, 0.015, 0.01};
  // Circuit-level grid: gate/storage/readout faults push the threshold an
  // order of magnitude below the phenomenological ~0.03, so the grid
  // brackets the expected ~0.012-0.018 crossing.
  const std::vector<double> circuit_grid = {0.024, 0.020, 0.016, 0.013,
                                            0.010, 0.008, 0.006};

  // Decoders outlive the sweep: points capture them by reference. One
  // decoder per (strategy, L) serves both the serial shot path (a one-round
  // history per shot) and the batched block path.
  std::deque<decode::SpacetimeToricDecoder> decoders;
  for (const Strategy& strat : strategies) {
    for (const ToricCode* code : codes) {
      decoders.emplace_back(*code, decode::ToricSide::kPlaquette,
                            strat.matching);
    }
  }
  const decode::SpacetimeToricDecoder st4(code4, decode::ToricSide::kPlaquette,
                                          mwpm);
  const decode::SpacetimeToricDecoder st6(code6, decode::ToricSide::kPlaquette,
                                          mwpm);

  // Detector error models from the frame-simulated extraction circuit; the
  // counts are eps-independent, so one enumeration per lattice serves the
  // whole grid and each point gets weights_at(eps).
  const decode::ToricDem dem4 =
      decode::ToricDem::build(code4, decode::ToricSide::kPlaquette);
  const decode::ToricDem dem6 =
      decode::ToricDem::build(code6, decode::ToricSide::kPlaquette);

  // --- Build the sweep: one point per measured Proportion -------------------
  std::vector<sim::SweepPoint> points;
  std::map<std::string, size_t> index;
  const auto add_point = [&](std::string id,
                             std::function<Proportion()> measure) {
    index.emplace(id, points.size());
    points.push_back(sim::SweepPoint{
        "E14", std::move(id),
        [measure = std::move(measure)]() -> std::optional<sim::SweepMetrics> {
          const auto result = measure();
          sim::SweepMetrics metrics;
          metrics.add("failures", static_cast<double>(result.successes));
          metrics.add("trials", static_cast<double>(result.trials));
          return metrics;
        }});
  };
  for (size_t s = 0; s < strategies.size(); ++s) {
    for (size_t l = 0; l < 3; ++l) {
      const decode::SpacetimeToricDecoder& dec = decoders[s * 3 + l];
      for (const double p : p_grid) {
        add_point(ftqc::strfmt("%s_L%zu_p%.3f", strategies[s].key, kL[l], p),
                  [&, p, l] {
                    return failure_rate_2d(dec, p, shots, kSeed2d[l], engine);
                  });
      }
    }
  }
  for (const double p : st_grid) {
    add_point(ftqc::strfmt("spacetime_L4_p%.3f", p), [&, p] {
      return failure_rate_spacetime(st4, p, 4, shots_st, 101, engine);
    });
    add_point(ftqc::strfmt("spacetime_L6_p%.3f", p), [&, p] {
      return failure_rate_spacetime(st6, p, 6, shots_st, 103, engine);
    });
  }
  // Circuit-level points build their decoder per eps: the DEM counts are
  // shared but the -log p weights change with the physical rate.
  for (const double eps : circuit_grid) {
    add_point(ftqc::strfmt("circuit_L4_p%.3f", eps), [&, eps] {
      const decode::SpacetimeToricDecoder dec(
          code4, decode::ToricSide::kPlaquette, mwpm, dem4.weights_at(eps));
      return failure_rate_circuit(dec, eps, 4, shots_st, 107, engine);
    });
    add_point(ftqc::strfmt("circuit_L6_p%.3f", eps), [&, eps] {
      const decode::SpacetimeToricDecoder dec(
          code6, decode::ToricSide::kPlaquette, mwpm, dem6.weights_at(eps));
      return failure_rate_circuit(dec, eps, 6, shots_st, 109, engine);
    });
  }

  sim::CheckpointStore store(ftqc::bench::checkpoint_dir());
  const sim::SweepReport report = sim::run_sweep(
      points, ftqc::bench::sweep_options(),
      ftqc::bench::checkpoint_dir().empty() ? nullptr : &store);
  if (!report.finished()) {
    std::printf(
        "E14 sweep checkpointed: %zu done, %zu remaining (rerun with the "
        "same --checkpoint-dir to resume; no BENCH_E14.json written)\n",
        report.completed + report.skipped, report.remaining + report.failed);
    return report.failed > 0 ? 1 : 0;
  }
  const auto prop = [&](const std::string& id) {
    const auto& metrics = report.results[index.at(id)];
    return Proportion{static_cast<uint64_t>(metrics->at("failures")),
                      static_cast<uint64_t>(metrics->at("trials"))};
  };

  // --- Tables, fits and the BENCH_E14.json artifact -------------------------
  ftqc::bench::JsonResult json;
  for (const Strategy& strat : strategies) {
    std::printf("Perfect measurement, %s decoder:\n", strat.label);
    ftqc::Table table({"p", "L=4", "L=6", "L=8", "trend"});
    std::vector<double> grid, ratio;
    for (const double p : p_grid) {
      const auto f4 = prop(ftqc::strfmt("%s_L4_p%.3f", strat.key, p));
      const auto f6 = prop(ftqc::strfmt("%s_L6_p%.3f", strat.key, p));
      const auto f8 = prop(ftqc::strfmt("%s_L8_p%.3f", strat.key, p));
      table.add_row({ftqc::strfmt("%.2f", p), ftqc::strfmt("%.4f", f4.mean()),
                     ftqc::strfmt("%.4f", f6.mean()),
                     ftqc::strfmt("%.4f", f8.mean()),
                     trend_label(f4.mean(), f6.mean(), f8.mean())});
      // The L=8/L=4 failure ratio crosses 1 at the threshold. Only points
      // where BOTH proportions resolved with at least one failure enter the
      // fit: a zero mean can be "0 of 4000" (real, but log-unfittable) or
      // "0 of 0" (never measured), and neither is a measured ratio.
      grid.push_back(p);
      ratio.push_back(f4.resolved() && f8.resolved() && f4.mean() > 0 &&
                              f8.mean() > 0
                          ? f8.mean() / f4.mean()
                          : 0.0);
      if (p == 0.02) {
        json.add(std::string("failure_L4") + strat.json_suffix, f4.mean());
        json.add(std::string("failure_L6") + strat.json_suffix, f6.mean());
        json.add(std::string("failure_L8") + strat.json_suffix, f8.mean());
      }
      if (p == 0.08) {
        json.add(std::string("failure_L8_p08") + strat.json_suffix,
                 f8.mean());
      }
    }
    table.print();
    const std::string field =
        std::string("threshold") +
        (strat.json_suffix[0] ? strat.json_suffix : "_greedy");
    const ftqc::UnitCrossing crossing =
        ftqc::loglog_unit_crossing_ex(grid, ratio);
    json.add(field, crossing.valid ? crossing.x : 0.0);
    json.add(field + "_extrapolated", !crossing.valid || crossing.extrapolated);
    if (crossing.valid) {
      std::printf("  %s threshold (L8/L4 ratio -> 1): p ~ %.3f\n\n",
                  crossing.extrapolated ? "extrapolated" : "bracketed",
                  crossing.x);
    } else {
      std::printf("  threshold not resolved at these shot counts\n\n");
    }
  }

  // Faulty measurement: T = L rounds of noisy extraction (q = p), then one
  // trusted readout; defects are syndrome changes between rounds and the
  // matching runs in 3D. The threshold survives — smaller (~3%), but finite:
  // below it, growing L still suppresses the logical failure even though no
  // single syndrome snapshot can be trusted.
  std::printf(
      "Faulty syndrome measurement (q = p), space-time MWPM, T = L rounds:\n");
  ftqc::Table st_table({"p", "L=4", "L=6", "trend"});
  std::vector<double> st_fit_grid, st_ratio;
  for (const double p : st_grid) {
    const auto f4 = prop(ftqc::strfmt("spacetime_L4_p%.3f", p));
    const auto f6 = prop(ftqc::strfmt("spacetime_L6_p%.3f", p));
    st_table.add_row({ftqc::strfmt("%.3f", p),
                      ftqc::strfmt("%.4f", f4.mean()),
                      ftqc::strfmt("%.4f", f6.mean()),
                      f6.mean() < f4.mean()   ? "bigger is better"
                      : f6.mean() > f4.mean() ? "bigger is WORSE"
                                              : "tie"});
    st_fit_grid.push_back(p);
    st_ratio.push_back(f4.resolved() && f6.resolved() && f4.mean() > 0 &&
                               f6.mean() > 0
                           ? f6.mean() / f4.mean()
                           : 0.0);
    if (p == 0.02) {
      json.add("spacetime_p", p);
      json.add("spacetime_failure_L4", f4.mean());
      json.add("spacetime_failure_L6", f6.mean());
    }
  }
  st_table.print();
  const ftqc::UnitCrossing st_crossing =
      ftqc::loglog_unit_crossing_ex(st_fit_grid, st_ratio);
  json.add("threshold_spacetime", st_crossing.valid ? st_crossing.x : 0.0);
  json.add("threshold_spacetime_extrapolated",
           !st_crossing.valid || st_crossing.extrapolated);
  if (st_crossing.valid) {
    std::printf("  %s threshold (L6/L4 ratio -> 1): p ~ %.3f\n",
                st_crossing.extrapolated ? "extrapolated" : "bracketed",
                st_crossing.x);
  }

  // Circuit-level noise: the same space-time matching, but every fault now
  // originates in the extraction circuit itself (prep, four CNOT layers,
  // storage, readout) and the edge weights come from the enumerated DEM.
  std::printf(
      "\nCircuit-level noise (every location faults at eps), DEM-weighted\n"
      "space-time matching, T = L rounds:\n");
  ftqc::Table c_table({"eps", "L=4", "L=6", "trend"});
  std::vector<double> c_fit_grid, c_ratio;
  for (const double eps : circuit_grid) {
    const auto f4 = prop(ftqc::strfmt("circuit_L4_p%.3f", eps));
    const auto f6 = prop(ftqc::strfmt("circuit_L6_p%.3f", eps));
    c_table.add_row({ftqc::strfmt("%.3f", eps),
                     ftqc::strfmt("%.4f", f4.mean()),
                     ftqc::strfmt("%.4f", f6.mean()),
                     f6.mean() < f4.mean()   ? "bigger is better"
                     : f6.mean() > f4.mean() ? "bigger is WORSE"
                                             : "tie"});
    c_fit_grid.push_back(eps);
    c_ratio.push_back(f4.resolved() && f6.resolved() && f4.mean() > 0 &&
                              f6.mean() > 0
                          ? f6.mean() / f4.mean()
                          : 0.0);
    if (eps == 0.010) {
      json.add("circuit_failure_L4", f4.mean());
      json.add("circuit_failure_L6", f6.mean());
    }
  }
  c_table.print();
  const ftqc::UnitCrossing c_crossing =
      ftqc::loglog_unit_crossing_ex(c_fit_grid, c_ratio);
  json.add("threshold_circuit", c_crossing.valid ? c_crossing.x : 0.0);
  json.add("threshold_circuit_extrapolated",
           !c_crossing.valid || c_crossing.extrapolated);
  if (c_crossing.valid) {
    std::printf("  %s threshold (L6/L4 ratio -> 1): eps ~ %.4f\n",
                c_crossing.extrapolated ? "extrapolated" : "bracketed",
                c_crossing.x);
  }
  const auto w_dem = dem6.weights_at(0.010);
  json.add("dem_space_weight", w_dem.space_weight);
  json.add("dem_time_weight", w_dem.time_weight);

  // Batched decode throughput: 64 phenomenological L=6 T=6 histories packed
  // per word, decoded lane-parallel through the shared-diff front-end (OpenMP
  // across words when available). Sampling/packing time is excluded — this is
  // the decode-side metric the 2D sweep's batch engine pays.
  {
    const size_t num_words = ftqc::bench::scaled(24, 4);
    const size_t T = 6;
    const size_t c_sites = code6.num_plaquettes();
    std::vector<decode::PackedSyndromes> packs(num_words);
    Rng rng(4242);
    for (auto& pack : packs) {
      pack.resize(c_sites, T + 1);
      for (size_t lane = 0; lane < 64; ++lane) {
        gf2::BitVec errors(code6.num_qubits());
        gf2::BitVec measured(c_sites);
        for (size_t t = 0; t < T; ++t) {
          for (size_t e = 0; e < code6.num_qubits(); ++e) {
            if (rng.bernoulli(0.02)) errors.flip(e);
          }
          code6.plaquette_syndrome_into(errors, measured);
          for (size_t s = 0; s < c_sites; ++s) {
            if (rng.bernoulli(0.02)) measured.flip(s);
          }
          for (size_t s = 0; s < c_sites; ++s) {
            pack.set(t, s, lane, measured.get(s));
          }
        }
        code6.plaquette_syndrome_into(errors, measured);
        for (size_t s = 0; s < c_sites; ++s) {
          pack.set(T, s, lane, measured.get(s));
        }
      }
    }
    size_t sink = 0;
    const auto lanes_start = std::chrono::steady_clock::now();
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) reduction(+ : sink)
#endif
    for (size_t w = 0; w < num_words; ++w) {
      const auto corrections = decode::decode_lanes(st6, packs[w]);
      for (const auto& c : corrections) sink += c.popcount();
    }
    const double lanes_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      lanes_start)
            .count();
    const double lanes_per_sec =
        (static_cast<double>(64 * num_words) + (sink == SIZE_MAX ? 1 : 0)) /
        lanes_seconds;
    std::printf("\nBatched decode: %.3g lanes/sec (L=6, T=6, p=q=0.02, %zu "
                "words x 64 lanes)\n",
                lanes_per_sec, num_words);
    json.add("decode_lanes_per_sec", lanes_per_sec);
  }

  json.add("p", 0.02);
  json.add("shots", shots);
  json.add("shots_spacetime", shots_st);
  json.write();
  std::printf(
      "\nShape check: with perfect measurement MWPM pushes the crossover from\n"
      "the greedy matcher's ~0.08 toward the optimal ~0.103 — same hardware,\n"
      "same noise, better pairing. With every syndrome bit itself unreliable\n"
      "the 2D picture collapses (one snapshot cannot tell a data error from\n"
      "a misread), yet matching syndrome CHANGES across repeated rounds in 3D\n"
      "restores a finite threshold — the repeated-measurement workhorse of\n"
      "surface-code fault tolerance, and the quantitative completion of the\n"
      "§7 'intrinsically fault-tolerant hardware' claim.\n");
  return 0;
}
