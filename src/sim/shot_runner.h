#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/stats.h"

// OpenMP pragmas in this header are compiled into every consumer, including
// builds without OpenMP; emit them only when the compiler understands them.
#ifdef _OPENMP
#define FTQC_OMP_PRAGMA(directive) _Pragma(directive)
#else
#define FTQC_OMP_PRAGMA(directive)
#endif

namespace ftqc::sim {

// Which simulation engine a Monte Carlo loop should drive. The runner itself
// is engine-agnostic — it distributes shots, seeds, threads and timing — but
// carrying the choice in the plan lets one driver own both paths instead
// of hand-rolling a loop per engine (the pre-refactor state of benches
// E02/E04/E05/E10/E18 and the pseudothreshold sweeps).
enum class ShotEngine : uint8_t {
  kFrame,  // FrameSim: Pauli frames, one shot at a time
  kBatch,  // BatchFrameSim: bit-parallel frames, 64 shots per word
};

[[nodiscard]] const char* shot_engine_name(ShotEngine engine);
// Parses "frame" / "batch"; nullopt on anything else.
[[nodiscard]] std::optional<ShotEngine> parse_shot_engine(std::string_view name);

// How to run a Monte Carlo estimate: shot budget, seeding discipline, engine
// and threading. Per-shot seeds are `seed + seed_stride * shot_index`, which
// keeps every shot reproducible independently of the thread schedule.
struct ShotPlan {
  size_t shots = 0;
  uint64_t seed = 1;
  uint64_t seed_stride = 1;
  ShotEngine engine = ShotEngine::kFrame;
  // Shots handed to one batch-engine block (rounded up to a multiple of 64
  // by the batch engine itself). Blocks seed as shots do: block k covers
  // shot indices [k*block_shots, ...), so its seed uses that first index.
  size_t block_shots = 4096;
  // OpenMP over shots (serial engines) or blocks (batch engine) when the
  // library was built with it; a plan can opt out for deterministic ordering.
  bool parallel = true;

  // Decorrelated sub-plan for one importance stratum: same budget, engine
  // and stride, but the base seed is offset by a splitmix64-mixed function
  // of the stratum index, so stratum k's shot i never replays stratum j's
  // seed stream. The rare-event samplers pair this with run_range so each
  // stratum is an independent, chunk-boundary-reproducible shot sequence.
  [[nodiscard]] ShotPlan for_stratum(size_t stratum) const {
    ShotPlan sub = *this;
    uint64_t z = (static_cast<uint64_t>(stratum) + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    sub.seed = seed + (z ^ (z >> 31));
    return sub;
  }
};

// Outcome of a run: event counts plus wall-clock throughput, ready for the
// BENCH_*.json artifacts. Shot callables report up to kMaxEvents independent
// binary events per shot (bit i of the returned mask -> counts[i]); plain
// bool callables count event 0, the conventional "failure".
struct ShotResult {
  static constexpr size_t kMaxEvents = 4;

  std::array<uint64_t, kMaxEvents> counts{};
  uint64_t trials = 0;
  double seconds = 0;

  [[nodiscard]] uint64_t failures() const { return counts[0]; }
  // False until at least one shot actually ran. failure_rate() returns 0.0
  // either way, so sweep fit loops must skip unresolved points instead of
  // treating "never measured" as a perfect zero.
  [[nodiscard]] bool resolved() const { return trials > 0; }
  [[nodiscard]] double failure_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(counts[0]) /
                             static_cast<double>(trials);
  }
  [[nodiscard]] double shots_per_sec() const {
    return seconds > 0 ? static_cast<double>(trials) / seconds : 0.0;
  }
  [[nodiscard]] Proportion proportion(size_t event = 0) const {
    return Proportion{counts[event], trials};
  }
};

// Unified driver for every Monte Carlo shot loop in the tree. Callables
// receive a seed and own engine construction, so the runner needs no
// knowledge of recovery drivers or circuits:
//
//   ShotRunner runner({.shots = 60000, .seed = 1});
//   auto result = runner.run([&](uint64_t seed) {
//     SteaneRecovery rec(noise, policy, seed);
//     rec.run_cycle();
//     return rec.any_logical_error();   // bool or event bitmask
//   });
//
// The two-callable overload adds the word-parallel path: when the plan says
// kBatch, `block(seed, shots_in_block)` must process a whole block and
// return either a failure count (integral) or per-event counts
// (std::array<uint64_t, kMaxEvents>).
class ShotRunner {
 public:
  explicit ShotRunner(const ShotPlan& plan) : plan_(plan) {}

  [[nodiscard]] const ShotPlan& plan() const { return plan_; }

  template <typename ShotFn>
  ShotResult run(ShotFn&& shot) const {
    FTQC_CHECK(plan_.engine != ShotEngine::kBatch,
               "batch engine needs the (shot, block) overload");
    return run_range(0, plan_.shots, std::forward<ShotFn>(shot));
  }

  template <typename ShotFn, typename BlockFn>
  ShotResult run(ShotFn&& shot, BlockFn&& block) const {
    if (plan_.engine == ShotEngine::kBatch) {
      return run_range_blocks(0, plan_.shots, std::forward<BlockFn>(block));
    }
    return run_range(0, plan_.shots, std::forward<ShotFn>(shot));
  }

  // Runs shots [first_shot, first_shot + num_shots) of the plan's seed
  // sequence, ignoring plan.shots. Sequential samplers (the rare-event
  // budget router grants chunks one at a time) use this so the estimate is
  // identical no matter how the total was split into chunks: shot i always
  // sees seed_for(i).
  template <typename ShotFn>
  ShotResult run_range(size_t first_shot, size_t num_shots,
                       ShotFn&& shot) const {
    ShotResult result;
    result.trials = num_shots;
    const auto start = Clock::now();
    uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    const int64_t shots = static_cast<int64_t>(num_shots);
    const bool par = plan_.parallel;
    (void)par;
    // clang-format off
    FTQC_OMP_PRAGMA("omp parallel for schedule(static) reduction(+:c0,c1,c2,c3) if(par)")
    // clang-format on
    for (int64_t s = 0; s < shots; ++s) {
      const uint32_t mask = static_cast<uint32_t>(
          shot(seed_for(first_shot + static_cast<size_t>(s))));
      c0 += mask & 1u;
      c1 += (mask >> 1) & 1u;
      c2 += (mask >> 2) & 1u;
      c3 += (mask >> 3) & 1u;
    }
    result.counts = {c0, c1, c2, c3};
    result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return result;
  }

  // Batch-engine range: whole blocks anchored at absolute shot indices, so
  // block k of a range starting at first_shot covers
  // [first_shot + k*block_shots, ...) and seeds from that first index.
  // Chunk-boundary independence holds when chunks are multiples of
  // block_shots (the rare-event samplers size their chunks that way).
  template <typename BlockFn>
  ShotResult run_range_blocks(size_t first_shot, size_t num_shots,
                              BlockFn&& block) const {
    const size_t block_shots = plan_.block_shots > 0 ? plan_.block_shots : 4096;
    const size_t num_blocks = (num_shots + block_shots - 1) / block_shots;
    ShotResult result;
    const auto start = Clock::now();
    uint64_t trials = 0, c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    const int64_t blocks = static_cast<int64_t>(num_blocks);
    const bool par = plan_.parallel;
    (void)par;
    // clang-format off
    FTQC_OMP_PRAGMA("omp parallel for schedule(dynamic) reduction(+:trials,c0,c1,c2,c3) if(par)")
    // clang-format on
    for (int64_t b = 0; b < blocks; ++b) {
      const size_t offset = static_cast<size_t>(b) * block_shots;
      const size_t n = std::min(block_shots, num_shots - offset);
      const auto counts = block(seed_for(first_shot + offset), n);
      if constexpr (std::is_integral_v<std::decay_t<decltype(counts)>>) {
        c0 += static_cast<uint64_t>(counts);
      } else {
        c0 += counts[0];
        c1 += counts[1];
        c2 += counts[2];
        c3 += counts[3];
      }
      // The batch engine rounds block sizes up to whole 64-lane words; the
      // block callable reports failures among the first n lanes only.
      trials += n;
    }
    result.counts = {c0, c1, c2, c3};
    result.trials = trials;
    result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return result;
  }

 private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] uint64_t seed_for(size_t shot_index) const {
    return plan_.seed + plan_.seed_stride * static_cast<uint64_t>(shot_index);
  }

  ShotPlan plan_;
};

}  // namespace ftqc::sim
