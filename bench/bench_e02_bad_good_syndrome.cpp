// E2 (§3.1, Fig. 6): the "Bad!" syndrome circuit reuses one ancilla as the
// target of four successive XORs, so a single ancilla phase error feeds back
// into several data qubits: block phase errors at O(eps). The "Good!"
// circuit (one Shor-state bit per XOR) pushes that to O(eps²).
//
// The Monte Carlo section rides ShotRunner's engine parameter. The "Good!"
// path's cat-retry loop is data-dependent per shot; under --engine=batch
// (the default) it runs as masked re-replay through BatchCatRetry, the same
// machinery as BatchGenericShorRecovery. The failure metric bit-slices too:
// for the self-dual Steane code, Z-coset weight >= 2 is exactly the Hamming
// decode_logical of the Z-frame word (coset weight 0 -> trivial, 1 -> a
// correctable single error; both decode to logical 0).
#include <array>
#include <cstdio>

#include "bench_harness.h"
#include "common/table.h"
#include "ft/batch_recovery.h"
#include "ft/batch_shor.h"
#include "ft/fault_enumeration.h"
#include "ft/gadget_runner.h"
#include "ft/steane_circuits.h"
#include "gf2/hamming.h"
#include "sim/batch_frame_sim.h"
#include "sim/frame_sim.h"
#include "sim/shot_runner.h"

namespace {

using namespace ftqc;
using namespace ftqc::ft;

constexpr std::array<uint32_t, 7> kData = {0, 1, 2, 3, 4, 5, 6};
constexpr std::array<uint32_t, 4> kCat = {7, 8, 9, 10};
constexpr uint32_t kCheck = 11;
constexpr std::array<uint32_t, 8> kBadAll = {0, 1, 2, 3, 4, 5, 6, 7};
constexpr std::array<uint32_t, 12> kAll = {0, 1, 2, 3, 4, 5,
                                           6, 7, 8, 9, 10, 11};

// Z-coset weight of the data block after extraction (>=2 means the gadget
// injected a multi-qubit phase error: the §3.1 catastrophe).
size_t data_z_coset_weight(const sim::FrameSim& frame) {
  static const gf2::Hamming743 hamming;
  size_t best = 8;
  for (uint8_t stab : hamming.even_codewords()) {
    size_t w = 0;
    for (size_t q = 0; q < 7; ++q) {
      w += frame.z_frame().get(q) ^ ((stab >> q) & 1u);
    }
    best = std::min(best, w);
  }
  return best;
}

void execute_bad(sim::FrameSim& frame, NoiseInjector& injector) {
  run_gadget(frame, nonft_bitflip_syndrome(kData, 7), injector, kBadAll);
}

void execute_good(sim::FrameSim& frame, NoiseInjector& injector) {
  static const gf2::Hamming743 hamming;
  for (size_t row = 0; row < 3; ++row) {
    // Verified Shor-state ancilla (§3.3: discard flagged cats and retry),
    // then one XOR per ancilla bit (Fig. 7a).
    for (int attempt = 0; attempt < 8; ++attempt) {
      for (uint32_t q : kCat) frame.reset(q);
      frame.reset(kCheck);
      const auto record = run_gadget(
          frame, cat_prep_with_check(kCat, kCheck, true), injector, kAll);
      if (record[0] == 0) break;  // verification passed
    }
    run_gadget(frame,
               shor_syndrome_bit(kData, kCat, hamming.check_matrix().row(row),
                                 /*x_type=*/false),
               injector, kAll);
    for (uint32_t q : kCat) frame.reset(q);
    frame.reset(kCheck);
  }
}

bool run_bad(NoiseInjector& injector) {
  sim::FrameSim frame(8, 1);
  execute_bad(frame, injector);
  return data_z_coset_weight(frame) >= 2;
}

bool run_good(NoiseInjector& injector) {
  sim::FrameSim frame(12, 1);
  execute_good(frame, injector);
  return data_z_coset_weight(frame) >= 2;
}

// Lanes among the first n whose data Z frame has coset weight >= 2 — the
// bit-sliced data_z_coset_weight(frame) >= 2 (see the header comment).
uint64_t count_bad_lanes(const sim::BatchFrameSim& sim, size_t n) {
  static const gf2::Hamming743 hamming;
  const size_t words = sim.num_words();
  const uint64_t* z_rows[7];
  for (size_t q = 0; q < 7; ++q) z_rows[q] = sim.z_flips(q);
  std::vector<uint64_t> logical(words);
  batch_decode_rows(hamming, z_rows, /*logical=*/true, logical.data(), words);
  return batch_count_lanes(logical.data(), words, n);
}

uint64_t bad_block(const sim::NoiseParams& noise, uint64_t seed, size_t n) {
  sim::BatchFrameSim sim(8, n, seed);
  BatchGadgetRunner gadgets(sim, noise);
  static const sim::Circuit kBad = nonft_bitflip_syndrome(kData, 7);
  gadgets.run(kBad, kBadAll, /*lane_mask=*/nullptr);
  return count_bad_lanes(sim, n);
}

uint64_t good_block(const sim::NoiseParams& noise, uint64_t seed, size_t n) {
  static const gf2::Hamming743 hamming;
  static const sim::Circuit kPrep = cat_prep_with_check(kCat, kCheck, true);
  static const std::array<sim::Circuit, 3> kSyndrome = [] {
    std::array<sim::Circuit, 3> c;
    for (size_t row = 0; row < 3; ++row) {
      c[row] = shor_syndrome_bit(kData, kCat, hamming.check_matrix().row(row),
                                 /*x_type=*/false);
    }
    return c;
  }();
  sim::BatchFrameSim sim(12, n, seed);
  BatchGadgetRunner gadgets(sim, noise);
  BatchCatRetry retry(sim);
  for (size_t row = 0; row < 3; ++row) {
    // The §3.3 discard loop: up to 8 cats, each judged by its check bit
    // (and, under erasure, by the heralds on its qubits).
    retry.run(gadgets, kPrep, kCat, kAll, /*attempts=*/8, /*check=*/true,
              /*herald=*/noise.p_erase > 0, /*active=*/nullptr);
    gadgets.run(kSyndrome[row], kAll, /*lane_mask=*/nullptr);
    for (uint32_t q : kCat) sim.reset(q);
    sim.reset(kCheck);
  }
  return count_bad_lanes(sim, n);
}

double mc_rate(bool good, double eps, size_t shots, uint64_t seed,
               sim::ShotEngine engine) {
  const auto noise = sim::NoiseParams::uniform_gate(eps);
  sim::ShotPlan plan;
  plan.shots = shots;
  plan.seed = seed;
  plan.engine = engine;
  const sim::ShotRunner runner(plan);
  const auto result = runner.run(
      [&](uint64_t shot_seed) {
        StochasticInjector injector(noise);
        sim::FrameSim frame(12, shot_seed);
        if (good) {
          execute_good(frame, injector);
        } else {
          execute_bad(frame, injector);
        }
        return data_z_coset_weight(frame) >= 2;
      },
      [&](uint64_t block_seed, size_t block_shots) {
        return good ? good_block(noise, block_seed, block_shots)
                    : bad_block(noise, block_seed, block_shots);
      });
  return result.failure_rate();
}

}  // namespace

int main(int argc, char** argv) {
  ftqc::bench::init(argc, argv, "E02",
                    {sim::ShotEngine::kFrame, sim::ShotEngine::kBatch});
  const sim::ShotEngine engine =
      ftqc::bench::engine_or(sim::ShotEngine::kBatch);
  std::printf(
      "E2: shared-ancilla (Fig. 2/6 'Bad!') vs Shor-state ('Good!') syndrome\n"
      "extraction. Metric: P(>=2 phase errors fed into the data block).\n"
      "[engine: %s]\n\n",
      sim::shot_engine_name(engine));

  const auto bad_scan = scan_single_faults(run_bad, gate_kinds_only());
  const auto good_scan = scan_single_faults(run_good, gate_kinds_only());
  std::printf("Single-fault enumeration (linear-in-eps coefficient):\n");
  std::printf("  bad circuit : %zu locations, weighted failing = %.2f  -> O(eps)\n",
              bad_scan.num_locations, bad_scan.weighted_failing);
  std::printf("  good circuit: %zu locations, weighted failing = %.2f  -> O(eps^2)\n\n",
              good_scan.num_locations, good_scan.weighted_failing);

  ftqc::bench::JsonResult json;
  json.add("bad_single_fault_coeff", bad_scan.weighted_failing);
  json.add("good_single_fault_coeff", good_scan.weighted_failing);

  const size_t shots = ftqc::bench::scaled(40000, 500);
  ftqc::Table table({"eps", "bad: P(>=2 Z)", "good: P(>=2 Z)", "bad/eps",
                     "good/eps^2"});
  for (const double eps : {0.02, 0.01, 0.005, 0.002}) {
    const double bad = mc_rate(false, eps, shots, 7, engine);
    const double good = mc_rate(true, eps, shots, 11, engine);
    table.add_row({ftqc::strfmt("%.3g", eps), ftqc::strfmt("%.4g", bad),
                   ftqc::strfmt("%.4g", good), ftqc::strfmt("%.2f", bad / eps),
                   ftqc::strfmt("%.1f", good / (eps * eps))});
  }
  table.print();
  json.add("shots", shots);
  json.add_string("engine", sim::shot_engine_name(engine));
  json.write();
  std::printf(
      "\nShape check: bad/eps is ~constant (first-order failure); good/eps^2\n"
      "is ~constant (fault tolerance achieved), matching §3.1-3.2.\n");
  return 0;
}
