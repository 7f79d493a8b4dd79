// The src/decode matching subsystem: exhaustive minimum-weight pins against
// brute force, strategy-vs-strategy cost properties, the 3D space-time
// decoder for faulty syndrome measurement, the circuit-level detector error
// model, and the batched 64-lane decode front-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "decode/batch_decode.h"
#include "decode/blossom.h"
#include "decode/dem.h"
#include "decode/matching.h"
#include "decode/spacetime.h"
#include "topo/toric_code.h"

namespace ftqc::decode {
namespace {

using topo::ToricCode;

constexpr size_t kUnreachable = std::numeric_limits<size_t>::max();

std::shared_ptr<const GreedyMatching> greedy() {
  static const auto strategy = std::make_shared<const GreedyMatching>();
  return strategy;
}

std::shared_ptr<const BlossomMatching> blossom() {
  static const auto strategy = std::make_shared<const BlossomMatching>();
  return strategy;
}

// Minimum error weight for every plaquette syndrome of a small lattice, by
// Gray-code enumeration of all 2^(2L^2) X-error patterns with the syndrome
// maintained incrementally (each step flips one edge = two syndrome bits).
std::vector<size_t> brute_force_min_weights(const ToricCode& code) {
  const size_t nq = code.num_qubits();
  const size_t ns = code.num_plaquettes();
  EXPECT_LE(nq, 20u) << "brute force is for small lattices only";
  std::vector<uint32_t> edge_toggles(nq, 0);
  for (size_t e = 0; e < nq; ++e) {
    gf2::BitVec err(nq);
    err.set(e, true);
    edge_toggles[e] = static_cast<uint32_t>(code.plaquette_syndrome(err).to_u64());
  }
  std::vector<size_t> min_weight(size_t{1} << ns, kUnreachable);
  min_weight[0] = 0;
  uint64_t pattern = 0;
  uint32_t syndrome = 0;
  int weight = 0;
  for (uint64_t i = 1; i < (uint64_t{1} << nq); ++i) {
    const int bit = __builtin_ctzll(i);
    pattern ^= uint64_t{1} << bit;
    weight += ((pattern >> bit) & 1) != 0 ? 1 : -1;
    syndrome ^= edge_toggles[static_cast<size_t>(bit)];
    min_weight[syndrome] =
        std::min(min_weight[syndrome], static_cast<size_t>(weight));
  }
  return min_weight;
}

// A one-round trusted history is the 2D perfect-measurement decode.
void expect_matches_brute_force(
    size_t lattice, std::shared_ptr<const MatchingStrategy> strategy) {
  const ToricCode code(lattice);
  const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette,
                                      std::move(strategy));
  const auto min_weight = brute_force_min_weights(code);
  size_t checked = 0;
  for (size_t s = 0; s < min_weight.size(); ++s) {
    const bool even = (__builtin_popcountll(s) & 1) == 0;
    // On a torus the boundary map reaches exactly the even-parity syndromes.
    ASSERT_EQ(min_weight[s] != kUnreachable, even) << "syndrome " << s;
    if (!even) continue;
    gf2::BitVec syndrome(code.num_plaquettes());
    for (size_t b = 0; b < code.num_plaquettes(); ++b) {
      syndrome.set(b, ((s >> b) & 1) != 0);
    }
    const gf2::BitVec correction = decoder.decode({syndrome});
    EXPECT_EQ(code.plaquette_syndrome(correction), syndrome)
        << "syndrome " << s << " not cleared";
    EXPECT_EQ(correction.popcount(), min_weight[s])
        << "syndrome " << s << " corrected above minimum weight";
    ++checked;
  }
  EXPECT_EQ(checked, min_weight.size() / 2);
}

TEST(BlossomExhaustive, MatchesBruteForceMinimumWeightL2) {
  expect_matches_brute_force(2, blossom());
}

TEST(BlossomExhaustive, MatchesBruteForceMinimumWeightL3) {
  expect_matches_brute_force(3, blossom());
}

// Independent exact oracle: minimum perfect-matching cost of an n x n weight
// matrix by DP over defect subsets, dp[S] = cheapest pairing of S, always
// pairing S's lowest-indexed defect. O(2^n · n), so small n only.
size_t subset_dp_min_cost(const std::vector<size_t>& weights, size_t n) {
  std::vector<size_t> dp(size_t{1} << n, kUnreachable);
  dp[0] = 0;
  for (uint32_t s = 1; s < (uint32_t{1} << n); ++s) {
    if ((__builtin_popcount(s) & 1) != 0) continue;  // odd subsets unreachable
    const int i = __builtin_ctz(s);
    for (uint32_t rest = s ^ (1u << i); rest != 0; rest &= rest - 1) {
      const int j = __builtin_ctz(rest);
      dp[s] = std::min(dp[s], dp[s ^ (1u << i) ^ (1u << j)] +
                                  weights[static_cast<size_t>(i) * n +
                                          static_cast<size_t>(j)]);
    }
  }
  return dp.back();
}

// The subset-DP is provably optimal; the blossom primal-dual must agree with
// it on cost for every instance (pairings may differ when ties exist, costs
// may not).
TEST(BlossomMatching, CostMatchesSubsetDpOnRandomMetrics) {
  Rng rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = 2 * (1 + rng.next_below(8));  // 2..16 defects
    std::vector<size_t> weights(n * n, 0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        const size_t d = 1 + rng.next_below(60);
        weights[i * n + j] = d;
        weights[j * n + i] = d;
      }
    }
    const DistanceFn metric = [&](size_t a, size_t b) {
      return weights[a * n + b];
    };
    const auto blossom_pairs = blossom()->match(n, metric);
    ASSERT_EQ(blossom_pairs.size(), n / 2);
    EXPECT_EQ(matching_cost(blossom_pairs, metric),
              subset_dp_min_cost(weights, n))
        << "trial " << trial << " n=" << n;
  }
}

// Above the subset-DP oracle's reach, pin that the blossom cost never
// exceeds greedy's (a true optimum cannot) on large instances.
TEST(BlossomMatching, LargeInstancesNeverCostMoreThanGreedy) {
  Rng rng(103);
  const size_t n = 40;
  std::vector<size_t> weights(n * n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const size_t d = 1 + rng.next_below(200);
      weights[i * n + j] = d;
      weights[j * n + i] = d;
    }
  }
  const DistanceFn metric = [&](size_t a, size_t b) {
    return weights[a * n + b];
  };
  const auto blossom_pairs = blossom()->match(n, metric);
  const auto greedy_pairs = greedy()->match(n, metric);
  ASSERT_EQ(blossom_pairs.size(), n / 2);
  EXPECT_LE(matching_cost(blossom_pairs, metric),
            matching_cost(greedy_pairs, metric));
}

TEST(MatchingEdgeCases, EmptyDefectSetMatchesTriviallyWithNoMetricCalls) {
  size_t calls = 0;
  const DistanceFn metric = [&](size_t, size_t) -> size_t {
    ++calls;
    return 1;
  };
  const std::vector<std::shared_ptr<const MatchingStrategy>> strategies = {
      greedy(), blossom()};
  for (const auto& strategy : strategies) {
    EXPECT_TRUE(strategy->match(0, metric).empty()) << strategy->name();
  }
  EXPECT_EQ(calls, 0u);
  // Decoder level: an all-clear history decodes to the identity correction.
  const ToricCode code(4);
  const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette, blossom());
  const std::vector<gf2::BitVec> vacuum(4, gf2::BitVec(code.num_plaquettes()));
  EXPECT_FALSE(decoder.decode(vacuum).any());
}

// The greedy bugfix contract: the caller's metric is evaluated exactly once
// per unordered pair — n(n-1)/2 calls — never once per pair per scan round
// (the old O(n^3) behavior this test is a regression fence for).
TEST(MatchingEdgeCases, GreedyEvaluatesMetricOncePerUnorderedPair) {
  const size_t n = 32;
  size_t calls = 0;
  const DistanceFn metric = [&](size_t a, size_t b) {
    ++calls;
    return (a * 7919 + b * 104729) % 97 + 1;
  };
  const auto pairs = greedy()->match(n, metric);
  EXPECT_EQ(pairs.size(), n / 2);
  EXPECT_EQ(calls, n * (n - 1) / 2);
}

TEST(MatchingDeathTest, OddDefectCountAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const DistanceFn metric = [](size_t, size_t) -> size_t { return 1; };
  EXPECT_DEATH((void)greedy()->match(3, metric), "defects come in pairs");
  EXPECT_DEATH((void)blossom()->match(3, metric), "defects come in pairs");
}

TEST(MatchingDeathTest, SpacetimeDefectListMisuseAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const ToricCode code(4);
  const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette, blossom());
  EXPECT_DEATH((void)decoder.decode_defects({0, 1}, {0}),
               "defect site/round lists must be parallel");
  EXPECT_DEATH((void)decoder.decode_defects({0}, {0}),
               "space-time defects come in pairs");
}

// The blossom MWPM cost is a global optimum, so it can never exceed the
// greedy pairing's cost.
TEST(MatchingProperty, MwpmCostNeverExceedsGreedyOnRandomSyndromes) {
  const ToricCode code(6);
  Rng rng(71);
  const DistanceFn metric = [&](size_t a, size_t b) {
    return code.torus_site_distance(a, b);
  };
  for (int trial = 0; trial < 100; ++trial) {
    gf2::BitVec errors(code.num_qubits());
    for (size_t e = 0; e < code.num_qubits(); ++e) {
      if (rng.bernoulli(0.05)) errors.set(e, true);
    }
    const gf2::BitVec syndrome = code.plaquette_syndrome(errors);
    std::vector<uint32_t> defects;
    for (size_t s = syndrome.first_set(); s < syndrome.size();
         s = syndrome.next_set(s + 1)) {
      defects.push_back(static_cast<uint32_t>(s));
    }
    const DistanceFn defect_metric = [&](size_t a, size_t b) {
      return metric(defects[a], defects[b]);
    };
    const auto exact = blossom()->match(defects.size(), defect_metric);
    const auto greedy_pairs = greedy()->match(defects.size(), defect_metric);
    EXPECT_LE(matching_cost(exact, defect_metric),
              matching_cost(greedy_pairs, defect_metric));
  }
}

TEST(SpacetimeDecoder, SingleDataErrorIsCorrectedExactly) {
  const ToricCode code(4);
  const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette, blossom());
  gf2::BitVec errors(code.num_qubits());
  errors.set(code.h_edge(1, 1), true);
  const gf2::BitVec truth = code.plaquette_syndrome(errors);
  // Error lands before round 1: rounds 0 sees vacuum, rounds 1..2 see it,
  // and the final trusted round confirms it.
  const std::vector<gf2::BitVec> syndromes = {
      gf2::BitVec(code.num_plaquettes()), truth, truth, truth};
  const gf2::BitVec correction = decoder.decode(syndromes);
  EXPECT_EQ(correction.popcount(), 1u);
  EXPECT_TRUE(correction.get(code.h_edge(1, 1)));
}

TEST(SpacetimeDecoder, SingleMeasurementErrorNeedsNoCorrection) {
  const ToricCode code(4);
  const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette, blossom());
  const gf2::BitVec vacuum(code.num_plaquettes());
  gf2::BitVec misread = vacuum;
  misread.set(5, true);  // one flipped syndrome bit in round 1 only
  const std::vector<gf2::BitVec> syndromes = {vacuum, misread, vacuum, vacuum};
  EXPECT_FALSE(decoder.decode(syndromes).any());
}

TEST(SpacetimeDecoder, DistinguishesDataFromMeasurementError) {
  const ToricCode code(4);
  const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette, blossom());
  gf2::BitVec errors(code.num_qubits());
  errors.set(code.v_edge(0, 2), true);
  const gf2::BitVec truth = code.plaquette_syndrome(errors);
  gf2::BitVec misread = truth;
  misread.flip(0);  // simultaneous misread far from the data defect pair
  const std::vector<gf2::BitVec> syndromes = {
      gf2::BitVec(code.num_plaquettes()), misread, truth, truth};
  const gf2::BitVec correction = decoder.decode(syndromes);
  EXPECT_EQ(correction.popcount(), 1u);
  EXPECT_TRUE(correction.get(code.v_edge(0, 2)));
}

TEST(SpacetimeDecoder, PhenomenologicalRunsAlwaysClearTheFinalSyndrome) {
  const ToricCode code(4);
  const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette, blossom());
  size_t failures = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const auto result =
        run_phenomenological_memory(decoder, 0.01, 0.01, 4, 900 + seed);
    EXPECT_TRUE(result.cleared) << "seed " << seed;
    failures += result.logical_fail ? 1 : 0;
  }
  // p = q = 1% sits well below the ~3% phenomenological threshold.
  EXPECT_LT(failures, 20u);
}

TEST(SpacetimeDecoder, FailureFallsWithLatticeSizeBelowThreshold) {
  const double p = 0.015;
  const auto failure_rate = [&](size_t lattice, size_t shots) {
    const ToricCode code(lattice);
    const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette, blossom());
    size_t failures = 0;
    for (uint64_t seed = 0; seed < shots; ++seed) {
      failures += run_phenomenological_memory(decoder, p, p, lattice,
                                              1300 + seed * 3)
                      .logical_fail
                      ? 1
                      : 0;
    }
    return static_cast<double>(failures) / static_cast<double>(shots);
  };
  EXPECT_LT(failure_rate(6, 500), failure_rate(3, 500) + 1e-9);
}

TEST(SpacetimeDecoder, PurelyTimelikeDefectsNeedNoCorrection) {
  // Misread chains at three well-separated sites: every defect pair sits at
  // the same site in adjacent rounds, so the optimal matching is purely
  // time-like and the spatial projection — the data correction — is empty.
  const ToricCode code(4);
  const std::vector<std::shared_ptr<const MatchingStrategy>> strategies = {
      greedy(), blossom()};
  for (const auto& strategy : strategies) {
    const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette, strategy);
    const std::vector<uint32_t> sites = {0, 0, 7, 7, 12, 12};
    const std::vector<uint32_t> rounds = {0, 1, 1, 2, 2, 3};
    EXPECT_FALSE(decoder.decode_defects(sites, rounds).any())
        << strategy->name();
  }
}

// The batched front-end contract: lane l of decode_lanes is bit-for-bit the
// correction a serial decode of lane l's unpacked syndrome history returns.
TEST(BatchDecode, LanesAreBitIdenticalToSerialDecode) {
  const ToricCode code(6);
  const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette, blossom());
  const size_t sites = code.num_plaquettes();
  const size_t rounds = 5;  // noisy rounds; +1 trusted closing row
  Rng rng(91);
  PackedSyndromes packed;
  packed.resize(sites, rounds + 1);
  std::vector<std::vector<gf2::BitVec>> serial(64);
  for (size_t lane = 0; lane < 64; ++lane) {
    gf2::BitVec errors(code.num_qubits());
    std::vector<gf2::BitVec> history;
    for (size_t t = 0; t < rounds; ++t) {
      for (size_t e = 0; e < code.num_qubits(); ++e) {
        if (rng.bernoulli(0.03)) errors.flip(e);
      }
      gf2::BitVec s = code.plaquette_syndrome(errors);
      for (size_t b = 0; b < sites; ++b) {
        if (rng.bernoulli(0.03)) s.flip(b);  // measurement error
      }
      history.push_back(s);
    }
    history.push_back(code.plaquette_syndrome(errors));  // trusted row
    for (size_t t = 0; t <= rounds; ++t) {
      for (size_t b = 0; b < sites; ++b) {
        packed.set(t, b, lane, history[t].get(b));
      }
    }
    serial[lane] = std::move(history);
  }
  const auto batch = decode_lanes(decoder, packed);
  ASSERT_EQ(batch.size(), 64u);
  for (size_t lane = 0; lane < 64; ++lane) {
    EXPECT_EQ(batch[lane], decoder.decode(serial[lane])) << "lane " << lane;
  }
  // Masked lanes are skipped entirely and come back empty.
  const auto masked = decode_lanes(decoder, packed, 0xFFu);
  for (size_t lane = 0; lane < 64; ++lane) {
    if (lane < 8) {
      EXPECT_EQ(masked[lane], batch[lane]) << "lane " << lane;
    } else {
      EXPECT_EQ(masked[lane].size(), 0u) << "lane " << lane;
    }
  }
}

TEST(BatchDecode, MemoryKernelIsDeterministicAndHandlesTailLanes) {
  const ToricCode code(4);
  const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette, blossom());
  // 100 shots = one full 64-lane word plus a 36-lane tail word.
  const uint64_t first = batch_memory_2d_failures(decoder, 0.08, 100, 42);
  const uint64_t second = batch_memory_2d_failures(decoder, 0.08, 100, 42);
  EXPECT_EQ(first, second);
  EXPECT_LE(first, 100u);
  EXPECT_GT(first, 0u);  // p = 0.08 on L=4 fails ~18% of shots
}

TEST(DetectorErrorModel, SingleFaultsFireOnlyNearestNeighborDetectorPairs) {
  const ToricCode code(4);
  const ToricDem plaquette = ToricDem::build(code, ToricSide::kPlaquette);
  const auto& counts = plaquette.counts();
  EXPECT_GT(counts.locations, 0u);
  EXPECT_GT(counts.space, 0.0);  // data errors between extraction layers
  EXPECT_GT(counts.time, 0.0);   // readout / ancilla-prep faults
  EXPECT_GT(counts.diag, 0.0);   // mid-extraction CNOT hook faults
  // The greedy pair decomposition must fully explain every single fault with
  // unit-displacement edges; residual "far" mass would mean the DEM graph is
  // missing an edge class the decoder needs.
  EXPECT_EQ(counts.far, 0.0);
  const double ps = plaquette.p_space(0.01);
  const double pt = plaquette.p_time(0.01);
  EXPECT_GT(ps, 0.0);
  EXPECT_LT(ps, 0.5);
  EXPECT_GT(pt, 0.0);
  EXPECT_LT(pt, 0.5);
  const SpacetimeOptions weights = plaquette.weights_at(0.01);
  EXPECT_GE(weights.space_weight, 1u);
  EXPECT_GE(weights.time_weight, 1u);
  // Less likely edge class => larger -log p weight; at 1% the space class
  // (more fault locations feed it) must not be the more expensive edge.
  EXPECT_EQ(ps > pt, weights.space_weight < weights.time_weight);
  // Star side runs the Hadamard sandwich: more fault locations, same clean
  // nearest-neighbor decomposition.
  const ToricDem star = ToricDem::build(code, ToricSide::kStar);
  EXPECT_EQ(star.counts().far, 0.0);
  EXPECT_GT(star.counts().locations, counts.locations);
}

TEST(DetectorErrorModel, CircuitMemoryShotsAlwaysClearTheFinalSyndrome) {
  const ToricCode code(4);
  const ToricDem dem = ToricDem::build(code, ToricSide::kPlaquette);
  const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette, blossom(),
                                      dem.weights_at(0.004));
  PhenomenologicalScratch scratch;
  size_t failures = 0;
  for (uint64_t seed = 0; seed < 80; ++seed) {
    const auto result =
        run_circuit_memory(decoder, 0.004, 4, 500 + seed, &scratch);
    EXPECT_TRUE(result.cleared) << "seed " << seed;
    failures += result.logical_fail ? 1 : 0;
  }
  // eps = 0.4% sits well below the ~1.4% circuit-level threshold.
  EXPECT_LT(failures, 16u);
}

}  // namespace
}  // namespace ftqc::decode
