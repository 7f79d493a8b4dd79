#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "common/stats.h"
#include "decode/batch_decode.h"
#include "decode/blossom.h"
#include "decode/dem.h"
#include "decode/spacetime.h"
#include "ft/batch_level2.h"
#include "ft/fault_enumeration.h"
#include "ft/noise_injector.h"
#include "ft/recovery.h"
#include "ft/steane_recovery.h"
#include "probe.h"
#include "sim/batch_frame_sim.h"
#include "sim/frame_sim.h"
#include "sim/shot_runner.h"
#include "sim/sweep_scheduler.h"
#include "topo/toric_code.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace ftqc;
using Clock = std::chrono::steady_clock;
using Counts4 = std::array<uint64_t, sim::ShotResult::kMaxEvents>;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// SplitMix64 finalizer: the workload seed never reaches the library as is.
uint64_t mix_seed(uint64_t seed) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t lane_mask(size_t lanes) {
  return lanes >= 64 ? ~uint64_t{0} : (uint64_t{1} << lanes) - 1;
}

void set_rate(PassResult& result) {
  const Proportion failures{result.count("failures"), result.count("shots")};
  result.logical_error_rate = failures.mean();
  result.rel_halfwidth = failures.relative_halfwidth();
}

using BlockFn =
    std::function<Counts4(uint64_t seed, size_t shots, uint64_t first_item)>;

// A grid point of a sweep workload: its id, shot budget and the block
// callable ShotRunner hands each block to. `traced_block` swaps in the
// rebuilt pipeline with spans. Event slots: 0 failures, 1 uncleared shots,
// 2 aborted lanes, 3 defects (traced toric passes only).
struct GridPoint {
  std::string id;
  size_t shots;
  size_t rounds;  // syndrome rounds extracted per shot
  BlockFn block;
  BlockFn traced_block;
  // Whether the blocks fill slot 1 (a cleared verdict per shot) and slot 2
  // (abort masks); an unfilled slot checks nothing.
  bool reports_cleared = false;
  bool reports_aborts = false;
  // The rebuilt pipeline plus a cleared-syndrome check, for run_checks().
  BlockFn checked_block = nullptr;
};

// Sweep workloads share one runner: every grid point is a ShotRunner over
// whole blocks on the work-stealing scheduler, each point seeded by
// sim::plan_for_point from the mixed workload seed.
class SweepWorkload : public Workload {
 public:
  SweepWorkload(std::string bench, uint64_t seed, size_t workers,
                uint64_t seed_stride, size_t block_shots)
      : bench_(std::move(bench)), workers_(workers) {
    base_.seed = mix_seed(seed);
    base_.seed_stride = seed_stride;
    base_.engine = sim::ShotEngine::kBatch;
    base_.block_shots = block_shots;
  }

  void warm_up() override {
    for (const GridPoint& point : grid_) {
      const sim::ShotPlan plan =
          sim::plan_for_point(base_, bench_, point.id + "/warm-up");
      (void)point.block(plan.seed, 64, 0);
    }
  }
  PassResult run_pass() override { return run(false); }
  PassResult run_traced_pass() override { return run(true); }

  PassResult run_checks() override {
    PassResult result;
    for (const GridPoint& point : grid_) {
      if (!point.checked_block) continue;
      sim::ShotPlan plan = sim::plan_for_point(base_, bench_, point.id);
      plan.shots = std::min(point.shots, base_.block_shots);
      const sim::ShotRunner runner(plan);
      const auto library = runner.run_range_blocks(
          0, plan.shots,
          [&](uint64_t seed, size_t n) { return point.block(seed, n, 0); });
      const auto staged = runner.run_range_blocks(
          0, plan.shots, [&](uint64_t seed, size_t n) {
            return point.checked_block(seed, n, 0);
          });
      result.counts["cleared_checked"] += staged.trials;
      result.counts["uncleared"] += staged.counts[1];
      result.counts["mismatched"] += staged.counts[0] != library.counts[0];
    }
    return result;
  }

 protected:
  std::vector<GridPoint> grid_;

 private:
  PassResult run(bool traced) {
    std::vector<sim::SweepPoint> points;
    uint64_t pass_span = 0;
    ProbeLog probes;
    for (size_t index = 0; index < grid_.size(); ++index) {
      const GridPoint& point = grid_[index];
      sim::ShotPlan plan = sim::plan_for_point(base_, bench_, point.id);
      plan.shots = point.shots;
      points.push_back(sim::SweepPoint{
          bench_, point.id,
          [&point, plan, index, traced, &pass_span,
           &probes]() -> std::optional<sim::SweepMetrics> {
            std::optional<Span> span;
            if (traced) span.emplace("sim.sweep.point", index, pass_span);
            const sim::ShotRunner runner(plan);
            uint64_t first_item = 0;
            const auto result = runner.run_range_blocks(
                0, plan.shots, [&](uint64_t block_seed, size_t n) {
                  const uint64_t item = first_item;
                  first_item += n;
                  if (!traced) {
                    const Counts4 counts = point.block(block_seed, n, item);
                    probes.after_work();
                    return counts;
                  }
                  const Span block("sim.sweep.block", item);
                  return point.traced_block(block_seed, n, item);
                });
            sim::SweepMetrics metrics;
            metrics.add("shots", static_cast<double>(result.trials));
            metrics.add("failures", static_cast<double>(result.counts[0]));
            metrics.add("uncleared", static_cast<double>(result.counts[1]));
            metrics.add("aborted", static_cast<double>(result.counts[2]));
            metrics.add("defects", static_cast<double>(result.counts[3]));
            return metrics;
          }});
    }
    sim::SweepOptions options;
    options.workers = workers_;
    options.verbose = false;

    PassResult result;
    const auto start = Clock::now();
    sim::SweepReport report;
    if (traced) {
      const Span pass("pass", 0);
      pass_span = pass.id();
      report = sim::run_sweep(points, options);
    } else {
      report = sim::run_sweep(points, options);
    }
    result.seconds = seconds_since(start) -
                     probes.seconds() / static_cast<double>(workers_);
    result.probe_speed = probes.mean_speed();

    auto& counts = result.counts;
    counts["points"] = points.size();
    counts["failed_points"] = report.failed + report.remaining;
    for (size_t i = 0; i < points.size(); ++i) {
      if (!report.results[i].has_value()) continue;
      const sim::SweepMetrics& m = *report.results[i];
      for (const char* key : {"shots", "failures", "uncleared", "aborted"}) {
        counts[key] += static_cast<uint64_t>(m.at(key));
      }
      if (traced) {
        counts["defects"] += static_cast<uint64_t>(m.at("defects"));
        counts["extract_rounds"] +=
            static_cast<uint64_t>(m.at("shots")) * grid_[i].rounds;
      }
      if (grid_[i].reports_cleared) {
        counts["cleared_checked"] += static_cast<uint64_t>(m.at("shots"));
      }
      if (grid_[i].reports_aborts) {
        counts["lanes_checked"] += static_cast<uint64_t>(m.at("shots"));
      }
      counts["point." + grid_[i].id + ".shots"] =
          static_cast<uint64_t>(m.at("shots"));
      counts["point." + grid_[i].id + ".failures"] =
          static_cast<uint64_t>(m.at("failures"));
    }
    set_rate(result);
    return result;
  }

  std::string bench_;
  size_t workers_;
  sim::ShotPlan base_;
};

// ---------------------------------------------------------------------------
// toric-2d: batched 2D toric memory with perfect measurement, blossom
// matching, on decode::batch_memory_2d_failures (E14's batch engine path).

// decode::batch_memory_2d_failures rebuilt stage by stage, draw for draw:
// BatchFrameSim sampling, bit-sliced parity words, decode_lanes, logical
// verdict. Also counts defects; with `check_cleared`, checks every lane's
// correction against its syndrome (not part of any timed pass).
Counts4 staged_2d_block(const decode::SpacetimeToricDecoder& decoder, double p,
                        size_t shots, uint64_t seed, uint64_t first_item,
                        bool check_cleared) {
  const topo::ToricCode& code = decoder.code();
  const size_t l = code.lattice();
  const size_t sites = code.num_plaquettes();
  Counts4 counts{};
  Rng seq(seed);
  decode::PackedSyndromes packed;
  packed.resize(sites, 1);
  std::optional<sim::BatchFrameSim> bsim;
  for (size_t done = 0; done < shots; done += 64) {
    const size_t lanes = std::min<size_t>(64, shots - done);
    const uint64_t mask = lane_mask(lanes);
    const uint64_t item = first_item + done;
    {
      const Span span("sim.frames", item);
      bsim.emplace(code.num_qubits(), 64, seq.next_u64());
      for (size_t q = 0; q < code.num_qubits(); ++q) bsim->x_error(q, p);
    }
    {
      const Span span("topo.extract", item);
      for (size_t y = 0; y < l; ++y) {
        for (size_t x = 0; x < l; ++x) {
          packed.words[y * l + x] = bsim->x_flips(code.h_edge(x, y))[0] ^
                                    bsim->x_flips(code.h_edge(x, y + 1))[0] ^
                                    bsim->x_flips(code.v_edge(x, y))[0] ^
                                    bsim->x_flips(code.v_edge(x + 1, y))[0];
        }
      }
      for (size_t s = 0; s < sites; ++s) {
        counts[3] += static_cast<uint64_t>(
            __builtin_popcountll(packed.words[s] & mask));
      }
    }
    std::vector<gf2::BitVec> corrections;
    {
      const Span span("decode.match", item);
      corrections = decode::decode_lanes(decoder, packed, mask);
    }
    {
      const Span span("topo.verdict", item);
      uint64_t err_f1 = 0, err_f2 = 0;
      for (size_t x = 0; x < l; ++x) {
        err_f1 ^= bsim->x_flips(code.h_edge(x, 0))[0];
      }
      for (size_t y = 0; y < l; ++y) {
        err_f2 ^= bsim->x_flips(code.v_edge(0, y))[0];
      }
      for (size_t lane = 0; lane < lanes; ++lane) {
        const auto [c1, c2] = code.logical_x_flips(corrections[lane]);
        const bool f1 = (((err_f1 >> lane) & 1) != 0) != c1;
        const bool f2 = (((err_f2 >> lane) & 1) != 0) != c2;
        counts[0] += (f1 || f2) ? 1 : 0;
      }
    }
    if (!check_cleared) continue;
    for (size_t lane = 0; lane < lanes; ++lane) {
      const gf2::BitVec syndrome = code.plaquette_syndrome(corrections[lane]);
      for (size_t s = 0; s < sites; ++s) {
        if (syndrome.get(s) != (((packed.words[s] >> lane) & 1) != 0)) {
          ++counts[1];
          break;
        }
      }
    }
  }
  return counts;
}

class Toric2d final : public SweepWorkload {
 public:
  Toric2d(uint64_t seed, size_t workers)
      : SweepWorkload("perfbench.toric-2d", seed, workers, 7, 1024) {
    const auto matching = std::make_shared<const decode::BlossomMatching>();
    // Shots fall with L so each lattice costs roughly alike in total, while
    // one L=16 shot costs ~11x an L=8 shot: uneven points for the
    // scheduler's work stealing. The costliest points come first, so the
    // pass does not end on one worker finishing a large point alone.
    constexpr std::array<std::pair<size_t, size_t>, 3> kLattices = {
        {{16, 1280}, {12, 2560}, {8, 5120}}};
    for (const auto& [l, shots] : kLattices) {
      codes_.emplace_back(l);
      decoders_.emplace_back(codes_.back(), decode::ToricSide::kPlaquette,
                             matching);
      const decode::SpacetimeToricDecoder& dec = decoders_.back();
      for (const double p : {0.07, 0.08, 0.09}) {
        char id[32];
        std::snprintf(id, sizeof id, "L%zu_p%.3f", l, p);
        grid_.push_back(GridPoint{
            id, shots, 1,
            [&dec, p](uint64_t seed, size_t n, uint64_t) {
              return Counts4{decode::batch_memory_2d_failures(dec, p, n, seed),
                             0, 0, 0};
            },
            [&dec, p](uint64_t seed, size_t n, uint64_t item) {
              return staged_2d_block(dec, p, n, seed, item, false);
            },
            false, false,
            [&dec, p](uint64_t seed, size_t n, uint64_t item) {
              return staged_2d_block(dec, p, n, seed, item, true);
            }});
      }
    }
  }

 private:
  std::deque<topo::ToricCode> codes_;
  std::deque<decode::SpacetimeToricDecoder> decoders_;
};

// ---------------------------------------------------------------------------
// toric-circuit: circuit-level toric memory, T = L noisy extraction rounds
// on the serial FrameSim, space-time blossom matching with DEM weights.

// decode::run_circuit_memory rebuilt stage by stage with the same draws.
uint32_t traced_circuit_shot(const decode::SpacetimeToricDecoder& decoder,
                             double eps, size_t rounds, uint64_t seed,
                             decode::PhenomenologicalScratch& s, uint64_t item,
                             uint64_t& defects) {
  const topo::ToricCode& code = decoder.code();
  const size_t sites = code.num_plaquettes();
  s.syndromes.resize(rounds + 1);
  if (s.errors.size() != code.num_qubits()) s.errors.resize(code.num_qubits());
  {
    const Span span("topo.extract", item);
    sim::FrameSim sim(code.num_qubits() + sites, seed);
    ft::StochasticInjector injector(sim::NoiseParams::uniform_gate(eps, eps));
    for (size_t t = 0; t < rounds; ++t) {
      decode::run_extraction_round(sim, injector, code,
                                   decode::ToricSide::kPlaquette,
                                   s.syndromes[t]);
    }
    for (uint32_t q = 0; q < code.num_qubits(); ++q) {
      s.errors.set(q, sim.x_frame().get(q));
    }
    code.plaquette_syndrome_into(s.errors, s.syndromes[rounds]);
    defects += s.syndromes[0].popcount();
    for (size_t t = 1; t <= rounds; ++t) {
      s.check = s.syndromes[t];
      s.check ^= s.syndromes[t - 1];
      defects += s.check.popcount();
    }
  }
  gf2::BitVec correction;
  {
    const Span span("decode.match", item);
    correction = decoder.decode(s.syndromes);
  }
  const Span span("topo.verdict", item);
  s.errors ^= correction;
  code.plaquette_syndrome_into(s.errors, s.check);
  const bool cleared = !s.check.any();
  const auto [f1, f2] = code.logical_x_flips(s.errors);
  return ((f1 || f2) ? 1u : 0u) | (cleared ? 0u : 2u);
}

class ToricCircuit final : public SweepWorkload {
 public:
  ToricCircuit(uint64_t seed, size_t workers)
      : SweepWorkload("perfbench.toric-circuit", seed, workers, 7, 1000) {
    const auto matching = std::make_shared<const decode::BlossomMatching>();
    for (const size_t l : {6, 4}) {
      codes_.emplace_back(l);
      const topo::ToricCode& code = codes_.back();
      // One exhaustive single-fault enumeration per lattice serves every
      // eps: the counts are eps-independent, the weights are not.
      const decode::ToricDem dem =
          decode::ToricDem::build(code, decode::ToricSide::kPlaquette);
      for (const double eps : {0.008, 0.010, 0.012}) {
        decoders_.emplace_back(code, decode::ToricSide::kPlaquette, matching,
                               dem.weights_at(eps));
        const decode::SpacetimeToricDecoder& dec = decoders_.back();
        char id[32];
        std::snprintf(id, sizeof id, "L%zu_eps%.3f", l, eps);
        grid_.push_back(GridPoint{
            id, 9000, l,
            [&dec, eps, l](uint64_t seed, size_t n, uint64_t) {
              Rng rng(seed);
              decode::PhenomenologicalScratch scratch;
              Counts4 counts{};
              for (size_t i = 0; i < n; ++i) {
                const auto shot = decode::run_circuit_memory(
                    dec, eps, l, rng.next_u64(), &scratch);
                counts[0] += shot.logical_fail ? 1 : 0;
                counts[1] += shot.cleared ? 0 : 1;
              }
              return counts;
            },
            [&dec, eps, l](uint64_t seed, size_t n, uint64_t item) {
              Rng rng(seed);
              decode::PhenomenologicalScratch scratch;
              Counts4 counts{};
              for (size_t i = 0; i < n; ++i) {
                const uint32_t events = traced_circuit_shot(
                    dec, eps, l, rng.next_u64(), scratch, item + i, counts[3]);
                counts[0] += events & 1u;
                counts[1] += (events >> 1) & 1u;
              }
              return counts;
            },
            true});
      }
    }
  }

 private:
  std::deque<topo::ToricCode> codes_;
  std::deque<decode::SpacetimeToricDecoder> decoders_;
};

// ---------------------------------------------------------------------------
// steane-exrec: level-2 extended-rectangle Steane recovery, 1024-shot
// BatchLevel2Recovery blocks as E18 runs them.

uint64_t aborted_lanes(ft::BatchLevel2Recovery& rec, size_t lanes) {
  const uint64_t* mask = rec.frames().abort_mask();
  uint64_t aborted = 0;
  for (size_t done = 0, w = 0; done < lanes; done += 64, ++w) {
    aborted += static_cast<uint64_t>(
        __builtin_popcountll(mask[w] & lane_mask(lanes - done)));
  }
  return aborted;
}

class SteaneExRec final : public SweepWorkload {
 public:
  SteaneExRec(uint64_t seed, size_t workers)
      : SweepWorkload("perfbench.steane-exrec", seed, workers, 11, 1024),
        seed_(mix_seed(seed ^ 0x5eedull)) {
    policy_.level2_discipline = ft::Level2Discipline::kExRec;
    for (const double eps : {5e-4, 1e-3, 2e-3}) {
      noises_.push_back(sim::NoiseParams::uniform_gate(eps));
      const sim::NoiseParams& noise = noises_.back();
      char id[32];
      std::snprintf(id, sizeof id, "eps%.0e", eps);
      grid_.push_back(GridPoint{
          id, 65536, 0,
          [this, &noise](uint64_t seed, size_t n, uint64_t) {
            ft::BatchLevel2Recovery rec(noise, policy_, n, seed);
            rec.run_cycle();
            return Counts4{rec.count_any_logical_error(n), 0,
                           aborted_lanes(rec, n), 0};
          },
          [this, &noise](uint64_t seed, size_t n, uint64_t item) {
            std::optional<ft::BatchLevel2Recovery> rec;
            {
              const Span replay("ft.replay", item);
              {
                const Span span("ft.replay.ctor", item);
                rec.emplace(noise, policy_, n, seed);
              }
              const Span span("ft.replay.cycle", item);
              rec->run_cycle();
            }
            Counts4 counts{};
            {
              const Span span("ft.verdict", item);
              counts[0] = rec->count_any_logical_error(n);
            }
            counts[2] = aborted_lanes(*rec, n);
            return counts;
          },
          false, true});
    }
  }

  // Median run_cycle time of 64-shot blocks over that of 1024-shot blocks
  // at eps = 1e-3, interleaved so machine drift hits both alike.
  double fixed_cost_frac() override {
    constexpr size_t kRepeats = 15;
    std::vector<double> small, large;
    Rng rng(seed_);
    for (size_t i = 0; i < kRepeats; ++i) {
      for (const size_t shots : {size_t{64}, size_t{1024}}) {
        ft::BatchLevel2Recovery rec(noises_[1], policy_, shots, rng.next_u64());
        const auto start = Clock::now();
        rec.run_cycle();
        (shots == 64 ? small : large).push_back(seconds_since(start));
      }
    }
    std::sort(small.begin(), small.end());
    std::sort(large.begin(), large.end());
    return small[kRepeats / 2] / large[kRepeats / 2];
  }

 private:
  uint64_t seed_;
  ft::RecoveryPolicy policy_;
  std::deque<sim::NoiseParams> noises_;
};

// ---------------------------------------------------------------------------
// steane-rare: the rare-event engine on the level-1 Steane cycle, set up as
// bench_rare_event's sub-pseudothreshold station runs it.

class SteaneRare final : public Workload {
 public:
  SteaneRare(uint64_t seed, double budget_scale) {
    options_.scan.filter = ft::gate_kinds_only();
    options_.max_faults = 4;
    // k = 1 is proven malignancy-free by the exhaustive single-fault scan.
    options_.known_zero_max_k = 1;
    options_.budget = static_cast<size_t>(std::llround(288000 * budget_scale));
    options_.seed = mix_seed(seed);
  }

  void warm_up() override {
    ft::RareEventOptions options = options_;
    options.budget /= 100;
    options.seed = mix_seed(options_.seed);
    (void)ft::estimate_rare_failure_sweep(experiment(), kEps, options);
  }

  PassResult run_pass() override {
    ProbeLog probes;
    const ft::GadgetExperiment replay = experiment();
    const ft::GadgetExperiment probed = [&](ft::NoiseInjector& injector) {
      const bool fail = replay(injector);
      probes.after_work();
      return fail;
    };
    const auto start = Clock::now();
    const ft::RareEventSweep sweep =
        ft::estimate_rare_failure_sweep(probed, kEps, options_);
    PassResult pass = result(sweep, seconds_since(start) - probes.seconds());
    pass.probe_speed = probes.mean_speed();
    return pass;
  }

  PassResult run_traced_pass() override {
    uint64_t replay = 0;
    const ft::GadgetExperiment experiment =
        [&replay](ft::NoiseInjector& injector) {
          const uint64_t item = replay++;
          const Span span("ft.replay", item);
          std::optional<ft::SteaneRecovery> rec;
          {
            const Span ctor("ft.replay.ctor", item);
            rec.emplace(sim::NoiseParams{}, ft::RecoveryPolicy{}, 77);
          }
          rec->set_injector(&injector);
          {
            const Span cycle("ft.replay.cycle", item);
            rec->run_cycle();
          }
          rec->set_injector(nullptr);
          const Span verdict("ft.verdict", item);
          return rec->any_logical_error();
        };
    const auto start = Clock::now();
    std::optional<ft::RareEventSweep> sweep;
    {
      const Span pass("pass", 0);
      const Span rare("ft.rare", 0);
      sweep.emplace(ft::estimate_rare_failure_sweep(experiment, kEps, options_));
    }
    return result(*sweep, seconds_since(start));
  }

 private:
  inline static const std::vector<double> kEps = {1e-4, 5e-5, 1e-5};

  // bench_rare_event's level-1 experiment: a fresh SteaneRecovery per
  // replay, all noise from the injector's armed proposal.
  static ft::GadgetExperiment experiment() {
    return [](ft::NoiseInjector& injector) {
      ft::SteaneRecovery rec(sim::NoiseParams{}, ft::RecoveryPolicy{}, 77);
      rec.set_injector(&injector);
      rec.run_cycle();
      rec.set_injector(nullptr);
      return rec.any_logical_error();
    };
  }

  static PassResult result(const ft::RareEventSweep& sweep, double seconds) {
    PassResult result;
    result.seconds = seconds;
    auto& counts = result.counts;
    counts["points"] = 1;
    counts["failed_points"] = 0;
    counts["shots"] = sweep.shots;
    for (size_t k = 0; k < sweep.strata.size(); ++k) {
      const std::string stratum = "stratum." + std::to_string(k);
      counts[stratum + ".raw"] = sweep.raw_shots[k];
      counts[stratum + ".accepted"] = sweep.strata[k].trials;
      counts[stratum + ".accepted_failing"] = sweep.strata[k].successes;
      counts["accepted"] += sweep.strata[k].trials;
      counts["failures"] += sweep.strata[k].successes;
    }
    for (size_t i = 0; i < sweep.eps.size(); ++i) {
      char eps[16];
      std::snprintf(eps, sizeof eps, "%.0e", sweep.eps[i]);
      const sim::StratifiedEstimate& est = sweep.estimates[i];
      result.estimates[std::string(eps) + ".mean"] = est.mean;
      result.estimates[std::string(eps) + ".halfwidth"] = est.halfwidth;
      if (!std::isfinite(est.mean) || !std::isfinite(est.halfwidth)) {
        counts["failed_points"] = 1;
      }
    }
    // The end-to-end numbers are the deepest view, eps = 1e-5.
    result.logical_error_rate = sweep.estimates.back().mean;
    result.rel_halfwidth = sweep.estimates.back().relative_halfwidth();
    return result;
  }

  ft::RareEventOptions options_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "toric-2d", "toric-circuit", "steane-exrec", "steane-rare"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed,
                                        size_t workers,
                                        double rare_budget_scale) {
  if (name == "toric-2d") return std::make_unique<Toric2d>(seed, workers);
  if (name == "toric-circuit") {
    return std::make_unique<ToricCircuit>(seed, workers);
  }
  if (name == "steane-exrec") {
    return std::make_unique<SteaneExRec>(seed, workers);
  }
  if (name == "steane-rare") {
    return std::make_unique<SteaneRare>(seed, rare_budget_scale);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
