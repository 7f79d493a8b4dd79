// The electric (Z-error / star-defect) side of the toric code: duality with
// the magnetic side, decoder correctness through src/decode (greedy and
// blossom MWPM on one perfect snapshot, and the 3D space-time decoder over
// faulty rounds), and the combined depolarizing memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "decode/blossom.h"
#include "decode/matching.h"
#include "decode/spacetime.h"
#include "topo/toric_code.h"

namespace ftqc::topo {
namespace {

// Greedy matching of one perfect snapshot of `side` (a one-round trusted
// history): the toric code's ~8% baseline decoder.
gf2::BitVec greedy_correction(const ToricCode& code, decode::ToricSide side,
                              const gf2::BitVec& syndrome) {
  static const auto greedy = std::make_shared<const decode::GreedyMatching>();
  return decode::SpacetimeToricDecoder(code, side, greedy).decode({syndrome});
}

TEST(ToricDual, SingleZErrorCreatesChargePair) {
  const ToricCode code(4);
  gf2::BitVec errors(code.num_qubits());
  errors.set(code.v_edge(2, 1), true);
  EXPECT_EQ(code.star_syndrome(errors).popcount(), 2u);
}

TEST(ToricDual, StarDecoderClearsSyndrome) {
  const ToricCode code(6);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    gf2::BitVec errors(code.num_qubits());
    for (size_t e = 0; e < code.num_qubits(); ++e) {
      if (rng.bernoulli(0.03)) errors.set(e, true);
    }
    gf2::BitVec residual = errors;
    residual ^= greedy_correction(code, decode::ToricSide::kStar,
                                  code.star_syndrome(errors));
    EXPECT_FALSE(code.star_syndrome(residual).any());
  }
}

TEST(ToricDual, LogicalZFlipDetection) {
  const ToricCode code(4);
  // A full nontrivial Z loop along logical_z1's support is itself logical:
  // syndrome-free and flipping logical X... check via overlap bookkeeping:
  // logical_x1 (h-column) crosses it once.
  gf2::BitVec z_loop(code.num_qubits());
  for (size_t x = 0; x < 4; ++x) z_loop.set(code.h_edge(x, 0), true);
  EXPECT_FALSE(code.star_syndrome(z_loop).any());
  const auto [f1, f2] = code.logical_z_flips(z_loop);
  EXPECT_TRUE(f1);
  EXPECT_FALSE(f2);
}

TEST(ToricDual, StarsAndPlaquettesDecodeIndependently) {
  // Depolarizing-style noise: independent X and Z patterns; decoding each
  // side separately clears both syndromes (CSS structure of the model).
  const ToricCode code(6);
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    gf2::BitVec x_errors(code.num_qubits());
    gf2::BitVec z_errors(code.num_qubits());
    for (size_t e = 0; e < code.num_qubits(); ++e) {
      const auto roll = rng.next_below(100);
      if (roll < 2) x_errors.set(e, true);         // X
      if (roll >= 1 && roll < 3) z_errors.set(e, true);  // Z (and Y overlap)
    }
    gf2::BitVec rx = x_errors;
    rx ^= greedy_correction(code, decode::ToricSide::kPlaquette,
                            code.plaquette_syndrome(x_errors));
    gf2::BitVec rz = z_errors;
    rz ^= greedy_correction(code, decode::ToricSide::kStar,
                            code.star_syndrome(z_errors));
    EXPECT_FALSE(code.plaquette_syndrome(rx).any());
    EXPECT_FALSE(code.star_syndrome(rz).any());
  }
}

TEST(ToricDual, ZMemoryFailureDropsWithLatticeSize) {
  const double p = 0.03;
  auto failure_rate = [&](size_t l, size_t shots) {
    const ToricCode code(l);
    Rng rng(31 + l);
    size_t failures = 0;
    for (size_t s = 0; s < shots; ++s) {
      gf2::BitVec errors(code.num_qubits());
      for (size_t e = 0; e < code.num_qubits(); ++e) {
        if (rng.bernoulli(p)) errors.set(e, true);
      }
      gf2::BitVec residual = errors;
      residual ^= greedy_correction(code, decode::ToricSide::kStar,
                                    code.star_syndrome(errors));
      const auto [f1, f2] = code.logical_z_flips(residual);
      failures += (f1 || f2) ? 1 : 0;
    }
    return static_cast<double>(failures) / static_cast<double>(shots);
  };
  EXPECT_LT(failure_rate(8, 1500), failure_rate(4, 1500) + 1e-9);
}

TEST(ToricDual, StarMwpmDecoderClearsSyndromeAtOrBelowGreedyCost) {
  // The electric side on one perfect snapshot: exact MWPM clears every
  // charge syndrome and never pays more total geodesic length than the
  // greedy strategy.
  const ToricCode code(6);
  const auto mwpm = std::make_shared<const decode::BlossomMatching>();
  const decode::SpacetimeToricDecoder mwpm_dec(code, decode::ToricSide::kStar,
                                               mwpm);
  Rng rng(47);
  for (int trial = 0; trial < 50; ++trial) {
    gf2::BitVec errors(code.num_qubits());
    for (size_t e = 0; e < code.num_qubits(); ++e) {
      if (rng.bernoulli(0.05)) errors.set(e, true);
    }
    const gf2::BitVec syndrome = code.star_syndrome(errors);
    const gf2::BitVec mwpm_corr = mwpm_dec.decode({syndrome});
    EXPECT_FALSE(code.star_syndrome(errors ^ mwpm_corr).any());
    EXPECT_LE(mwpm_corr.popcount(),
              greedy_correction(code, decode::ToricSide::kStar, syndrome)
                  .popcount());
  }
}

TEST(ToricDual, StarMwpmMatchesBruteForceMinimumWeightL2) {
  // Dual of the plaquette-side exhaustive pin (tests/decode_test.cpp): on the
  // L=2 torus, enumerate all 2^8 Z-error patterns, record the minimum weight
  // per star syndrome, and demand the MWPM correction meets it exactly.
  const ToricCode code(2);
  const auto mwpm = std::make_shared<const decode::BlossomMatching>();
  const decode::SpacetimeToricDecoder decoder(code, decode::ToricSide::kStar,
                                              mwpm);
  constexpr size_t kUnreachable = std::numeric_limits<size_t>::max();
  std::vector<size_t> min_weight(size_t{1} << code.num_vertices(), kUnreachable);
  for (uint64_t pattern = 0; pattern < (uint64_t{1} << code.num_qubits());
       ++pattern) {
    gf2::BitVec errors(code.num_qubits());
    for (size_t e = 0; e < code.num_qubits(); ++e) {
      errors.set(e, ((pattern >> e) & 1) != 0);
    }
    const size_t s = code.star_syndrome(errors).to_u64();
    min_weight[s] = std::min(min_weight[s],
                             static_cast<size_t>(__builtin_popcountll(pattern)));
  }
  for (size_t s = 0; s < min_weight.size(); ++s) {
    if (min_weight[s] == kUnreachable) continue;
    gf2::BitVec syndrome(code.num_vertices());
    for (size_t b = 0; b < code.num_vertices(); ++b) {
      syndrome.set(b, ((s >> b) & 1) != 0);
    }
    const gf2::BitVec correction = decoder.decode({syndrome});
    EXPECT_EQ(code.star_syndrome(correction), syndrome);
    EXPECT_EQ(correction.popcount(), min_weight[s]) << "syndrome " << s;
  }
}

TEST(ToricDual, StarSpacetimeSingleZErrorIsCorrectedExactly) {
  const ToricCode code(4);
  const auto mwpm = std::make_shared<const decode::BlossomMatching>();
  const decode::SpacetimeToricDecoder decoder(code, decode::ToricSide::kStar,
                                              mwpm);
  gf2::BitVec errors(code.num_qubits());
  errors.set(code.v_edge(2, 1), true);
  const gf2::BitVec truth = code.star_syndrome(errors);
  const std::vector<gf2::BitVec> syndromes = {gf2::BitVec(code.num_vertices()),
                                              truth, truth, truth};
  const gf2::BitVec correction = decoder.decode(syndromes);
  EXPECT_EQ(correction.popcount(), 1u);
  EXPECT_TRUE(correction.get(code.v_edge(2, 1)));
}

TEST(ToricDual, StarSpacetimeMeasurementErrorNeedsNoCorrection) {
  const ToricCode code(4);
  const auto mwpm = std::make_shared<const decode::BlossomMatching>();
  const decode::SpacetimeToricDecoder decoder(code, decode::ToricSide::kStar,
                                              mwpm);
  const gf2::BitVec vacuum(code.num_vertices());
  gf2::BitVec misread = vacuum;
  misread.set(7, true);
  const std::vector<gf2::BitVec> syndromes = {vacuum, misread, vacuum, vacuum};
  EXPECT_FALSE(decoder.decode(syndromes).any());
}

TEST(ToricDual, StarSpacetimePhenomenologicalMemoryStaysBelowThreshold) {
  // Faulty charge measurement: every run must clear the trusted final
  // syndrome, and at p = q = 1% the logical Z failure stays rare.
  const ToricCode code(4);
  const auto mwpm = std::make_shared<const decode::BlossomMatching>();
  const decode::SpacetimeToricDecoder decoder(code, decode::ToricSide::kStar,
                                              mwpm);
  size_t failures = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const auto result =
        decode::run_phenomenological_memory(decoder, 0.01, 0.01, 4, 500 + seed);
    EXPECT_TRUE(result.cleared) << "seed " << seed;
    failures += result.logical_fail ? 1 : 0;
  }
  EXPECT_LT(failures, 20u);
}

TEST(ToricDual, ChargeAharonovBohmSeenByXLoop) {
  // Dual of the Fig. 16 check: an X loop (transporting a fluxon around a
  // region) equals the product of enclosed star operators and flags an
  // enclosed electric charge with a -1.
  const ToricCode code(3);
  sim::TableauSim sim(code.num_qubits(), 7);
  code.prepare_ground_state(sim);
  const auto loop = code.star_operator(1, 1);  // X loop around vertex (1,1)
  auto value = sim.peek_pauli(loop);
  ASSERT_TRUE(value.has_value());
  EXPECT_FALSE(*value);
  sim.apply_z(code.v_edge(1, 1));  // creates charges at vertices (1,1),(1,2)
  value = sim.peek_pauli(loop);
  ASSERT_TRUE(value.has_value());
  EXPECT_TRUE(*value);
}

}  // namespace
}  // namespace ftqc::topo
