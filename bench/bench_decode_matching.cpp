// Decoder micro-benchmark: raw decode throughput of the src/decode matching
// strategies on fixed pre-sampled workloads, so decoder-side regressions show
// up in the BENCH_DECODE.json trend line independently of the Monte Carlo
// physics sweeps in E14.
//   2D: L=8 toric lattice at p = 0.08 (near the greedy threshold, mean ~16
//       defects), one perfect snapshot decoded as a one-round history; and
//       L=16 at p = 0.08 (mean ~64 defects), the regime perfbench's toric-2d
//       workload runs, where the blossom solve itself sets the rate
//   3D: L=6, T=6 rounds of phenomenological noise at p = q = 0.02
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_harness.h"
#include "common/rng.h"
#include "common/table.h"
#include "decode/blossom.h"
#include "decode/matching.h"
#include "decode/spacetime.h"
#include "topo/toric_code.h"

namespace {

using namespace ftqc;
using Clock = std::chrono::steady_clock;

// `shots` perfect plaquette snapshots of iid X errors at rate p; adds their
// defect count to *total_defects.
std::vector<gf2::BitVec> sample_snapshots(const topo::ToricCode& code,
                                          double p, size_t shots, Rng& rng,
                                          size_t* total_defects) {
  std::vector<gf2::BitVec> syndromes;
  syndromes.reserve(shots);
  for (size_t s = 0; s < shots; ++s) {
    gf2::BitVec errors(code.num_qubits());
    for (size_t e = 0; e < code.num_qubits(); ++e) {
      if (rng.bernoulli(p)) errors.set(e, true);
    }
    syndromes.push_back(code.plaquette_syndrome(errors));
    *total_defects += syndromes.back().popcount();
  }
  return syndromes;
}

double decodes_per_sec(const decode::SpacetimeToricDecoder& dec,
                       const std::vector<gf2::BitVec>& syndromes) {
  const auto start = Clock::now();
  size_t sink = 0;
  for (const gf2::BitVec& s : syndromes) sink += dec.decode({s}).popcount();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  // Fold the sink into the result's noise floor so the loop cannot be
  // optimized away.
  return (static_cast<double>(syndromes.size()) + (sink == SIZE_MAX ? 1 : 0)) /
         seconds;
}

}  // namespace

int main(int argc, char** argv) {
  ftqc::bench::init(argc, argv, "DECODE");
  std::printf(
      "DECODE: matching-decoder micro-benchmark (fixed workloads, decode\n"
      "time only; sampling excluded).\n\n");
  const size_t shots = ftqc::bench::scaled(3000, 300);

  const topo::ToricCode code(8);
  const double p = 0.08;
  Rng rng(2024);
  size_t total_defects = 0;
  const std::vector<gf2::BitVec> syndromes =
      sample_snapshots(code, p, shots, rng, &total_defects);

  const auto greedy = std::make_shared<const decode::GreedyMatching>();
  const auto blossom = std::make_shared<const decode::BlossomMatching>();
  const decode::SpacetimeToricDecoder greedy_dec(
      code, decode::ToricSide::kPlaquette, greedy);
  const decode::SpacetimeToricDecoder blossom_dec(
      code, decode::ToricSide::kPlaquette, blossom);
  const double greedy_rate = decodes_per_sec(greedy_dec, syndromes);
  const double blossom_rate = decodes_per_sec(blossom_dec, syndromes);

  const topo::ToricCode code16(16);
  const size_t shots16 = shots / 3;
  Rng rng16(2016);
  size_t total_defects16 = 0;
  const std::vector<gf2::BitVec> syndromes16 =
      sample_snapshots(code16, p, shots16, rng16, &total_defects16);
  const decode::SpacetimeToricDecoder blossom_dec16(
      code16, decode::ToricSide::kPlaquette, blossom);
  const double blossom16_rate = decodes_per_sec(blossom_dec16, syndromes16);

  // Space-time: time whole phenomenological shots (T noisy rounds + decode);
  // the matcher dominates, and whole-shot rate is what E14's sweep pays.
  // Blossom here, matching E14's space-time contender.
  const topo::ToricCode code_st(6);
  const decode::SpacetimeToricDecoder st_dec(
      code_st, decode::ToricSide::kPlaquette, blossom);
  const size_t st_shots = shots / 2;
  const auto st_start = Clock::now();
  size_t st_fails = 0;
  for (size_t s = 0; s < st_shots; ++s) {
    st_fails += decode::run_phenomenological_memory(st_dec, 0.02, 0.02, 6,
                                                    3000 + s)
                    .logical_fail
                    ? 1
                    : 0;
  }
  const double st_seconds =
      std::chrono::duration<double>(Clock::now() - st_start).count();
  const double st_rate = static_cast<double>(st_shots) / st_seconds;

  ftqc::Table table({"decoder", "workload", "decodes/sec"});
  table.add_row({"greedy", "2D L=8 p=0.08", ftqc::strfmt("%.3g", greedy_rate)});
  table.add_row(
      {"blossom", "2D L=8 p=0.08", ftqc::strfmt("%.3g", blossom_rate)});
  table.add_row(
      {"blossom", "2D L=16 p=0.08", ftqc::strfmt("%.3g", blossom16_rate)});
  table.add_row({"spacetime blossom", "3D L=6 T=6 p=q=0.02",
                 ftqc::strfmt("%.3g", st_rate)});
  table.print();
  std::printf("mean defects per 2D syndrome: %.1f at L=8, %.1f at L=16\n",
              static_cast<double>(total_defects) / static_cast<double>(shots),
              static_cast<double>(total_defects16) /
                  static_cast<double>(shots16));

  ftqc::bench::JsonResult json;
  json.add("greedy_decodes_per_sec", greedy_rate);
  json.add("blossom_decodes_per_sec", blossom_rate);
  json.add("blossom_l16_decodes_per_sec", blossom16_rate);
  json.add("spacetime_shots_per_sec", st_rate);
  json.add("mean_defects_2d",
           static_cast<double>(total_defects) / static_cast<double>(shots));
  json.add("mean_defects_2d_l16", static_cast<double>(total_defects16) /
                                      static_cast<double>(shots16));
  json.add("shots", shots);
  json.write();
  return 0;
}
