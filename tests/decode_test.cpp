// The src/decode matching subsystem: exhaustive minimum-weight pins against
// brute force, strategy-vs-strategy cost properties, the 3D space-time
// decoder for faulty syndrome measurement, the circuit-level detector error
// model, and the batched 64-lane decode front-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "decode/batch_decode.h"
#include "decode/blossom.h"
#include "decode/dem.h"
#include "decode/matching.h"
#include "decode/spacetime.h"
#include "fnv1a.h"
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
    const auto blossom_pairs = blossom()->match(n, weights);
    ASSERT_EQ(blossom_pairs.size(), n / 2);
    EXPECT_EQ(matching_cost(blossom_pairs, n, weights),
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
  const auto blossom_pairs = blossom()->match(n, weights);
  const auto greedy_pairs = greedy()->match(n, weights);
  ASSERT_EQ(blossom_pairs.size(), n / 2);
  EXPECT_LE(matching_cost(blossom_pairs, n, weights),
            matching_cost(greedy_pairs, n, weights));
}

// Upper triangle of the space-time defect metric, straight from the torus
// distance (the decoder's own fill is pinned separately below).
std::vector<size_t> spacetime_weights(const ToricCode& code,
                                      const std::vector<uint32_t>& site,
                                      const std::vector<uint32_t>& round,
                                      size_t space_weight, size_t time_weight) {
  const size_t n = site.size();
  std::vector<size_t> weights(n * n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const size_t dt = round[i] > round[j] ? round[i] - round[j]
                                            : round[j] - round[i];
      weights[i * n + j] =
          space_weight * code.torus_site_distance(site[i], site[j]) +
          time_weight * dt;
    }
  }
  return weights;
}

// Adds blossom's pairing of one instance to a pairings fingerprint.
void add_pairings(Fnv1a& hash, size_t n, const std::vector<size_t>& weights) {
  const auto pairs = blossom()->match(n, weights);
  ASSERT_EQ(pairs.size(), n / 2);
  hash.add(n);
  for (const Match& m : pairs) hash.add(uint64_t{m.a} << 32 | m.b);
}

// Upper triangle of an n x n metric with iid weights 0..max_weight.
std::vector<size_t> random_metric(Rng& rng, size_t n, size_t max_weight) {
  std::vector<size_t> weights(n * n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      weights[i * n + j] = rng.next_below(max_weight + 1);
    }
  }
  return weights;
}

// Even sizes 2..max_n and back down, so the per-thread solver buffers grow,
// shrink and regrow.
std::vector<size_t> sizes_up_and_down(size_t max_n) {
  std::vector<size_t> sizes;
  for (size_t n = 2; n <= max_n; n += 2) sizes.push_back(n);
  for (size_t n = max_n; n >= 2; n -= 2) sizes.push_back(n);
  return sizes;
}

// Costs are not the whole contract: equal-cost pairings can correct a shot
// differently, and perfbench's exact default-seed counts depend on which
// pairing blossom returns. This fingerprints the pairings themselves over
// three instance families — tie-heavy random metrics (weights 0..3 and
// 0..50, n = 2..80 run small -> large -> small so the per-thread solver
// buffers shrink and regrow), L=16 p=0.08 plaquette snapshots (toric-2d's
// regime), and L=6 T=6 space-time histories with unequal space and time
// weights. A deliberate change of tie-breaking must re-record both this
// constant and perfbench/reference.json.
TEST(BlossomMatching, PairingsMatchRecordedFingerprint) {
  Fnv1a hash;
  Rng rng(211);
  for (const size_t max_weight : {size_t{3}, size_t{50}}) {
    for (const size_t n : sizes_up_and_down(80)) {
      add_pairings(hash, n, random_metric(rng, n, max_weight));
    }
  }

  const ToricCode l16(16);
  for (int shot = 0; shot < 100; ++shot) {
    gf2::BitVec errors(l16.num_qubits());
    for (size_t e = 0; e < l16.num_qubits(); ++e) {
      if (rng.bernoulli(0.08)) errors.set(e, true);
    }
    const gf2::BitVec syndrome = l16.plaquette_syndrome(errors);
    std::vector<uint32_t> site;
    for (size_t s = syndrome.first_set(); s < syndrome.size();
         s = syndrome.next_set(s + 1)) {
      site.push_back(static_cast<uint32_t>(s));
    }
    const std::vector<uint32_t> round(site.size(), 0);
    add_pairings(hash, site.size(), spacetime_weights(l16, site, round, 1, 1));
  }

  const ToricCode l6(6);
  const size_t rounds = 6;
  for (int shot = 0; shot < 100; ++shot) {
    gf2::BitVec errors(l6.num_qubits());
    gf2::BitVec prev(l6.num_plaquettes());
    std::vector<uint32_t> site, round;
    // T noisy rounds (data then readout errors), then one trusted round.
    for (size_t t = 0; t <= rounds; ++t) {
      const bool noisy = t < rounds;
      for (size_t e = 0; noisy && e < l6.num_qubits(); ++e) {
        if (rng.bernoulli(0.03)) errors.flip(e);
      }
      gf2::BitVec measured = l6.plaquette_syndrome(errors);
      for (size_t b = 0; noisy && b < measured.size(); ++b) {
        if (rng.bernoulli(0.03)) measured.flip(b);
      }
      gf2::BitVec diff = measured;
      diff ^= prev;
      for (size_t s = diff.first_set(); s < diff.size();
           s = diff.next_set(s + 1)) {
        site.push_back(static_cast<uint32_t>(s));
        round.push_back(static_cast<uint32_t>(t));
      }
      prev = measured;
    }
    add_pairings(hash, site.size(), spacetime_weights(l6, site, round, 2, 3));
  }

  EXPECT_EQ(hash.value(), 0x5516fd4972b03dc6ull);
}

// Pairings where phases need dual steps. On the tie-heavy families above
// most phases augment over edges that are already tight; with few ties a
// phase often runs out of tight edges and adjusts the duals before it
// augments. Three families: random metrics with weights 0..1000 (n =
// 2..120, small -> large -> small); 2,000 random metrics at n = 16 with
// weights 0..5, where a phase can contract an odd cycle of tight edges and
// still run out of them; and L=6 T=6 circuit-level histories from
// run_extraction_round at eps 0.01, weighted as toric-circuit's decoder
// weights them (ToricDem::weights_at(0.01)).
TEST(BlossomMatching, DualStepPairingsMatchRecordedFingerprint) {
  Fnv1a hash;
  Rng rng(227);
  for (const size_t n : sizes_up_and_down(120)) {
    add_pairings(hash, n, random_metric(rng, n, 1000));
  }
  for (int trial = 0; trial < 2000; ++trial) {
    add_pairings(hash, 16, random_metric(rng, 16, 5));
  }

  const ToricCode l6(6);
  const size_t rounds = 6;
  const SpacetimeOptions dem_weights =
      ToricDem::build(l6, ToricSide::kPlaquette).weights_at(0.01);
  const sim::NoiseParams noise = sim::NoiseParams::uniform_gate(0.01, 0.01);
  gf2::BitVec measured;
  for (uint64_t shot = 0; shot < 200; ++shot) {
    sim::FrameSim sim(l6.num_qubits() + l6.num_plaquettes(), 9100 + shot);
    ft::StochasticInjector injector(noise);
    gf2::BitVec prev(l6.num_plaquettes());
    std::vector<uint32_t> site, round;
    // T extraction rounds, then the trusted readout of the residual frame.
    for (size_t t = 0; t <= rounds; ++t) {
      if (t < rounds) {
        run_extraction_round(sim, injector, l6, ToricSide::kPlaquette,
                             measured);
      } else {
        gf2::BitVec errors(l6.num_qubits());
        for (uint32_t q = 0; q < l6.num_qubits(); ++q) {
          errors.set(q, sim.x_frame().get(q));
        }
        measured = l6.plaquette_syndrome(errors);
      }
      gf2::BitVec diff = measured;
      diff ^= prev;
      for (size_t s = diff.first_set(); s < diff.size();
           s = diff.next_set(s + 1)) {
        site.push_back(static_cast<uint32_t>(s));
        round.push_back(static_cast<uint32_t>(t));
      }
      prev = measured;
    }
    add_pairings(hash, site.size(),
                 spacetime_weights(l6, site, round, dem_weights.space_weight,
                                   dem_weights.time_weight));
  }

  EXPECT_EQ(hash.value(), 0x0aa5faa77749f106ull) << std::hex << hash.value();
}

TEST(MatchingEdgeCases, EmptyDefectSetMatchesTrivially) {
  const std::vector<std::shared_ptr<const MatchingStrategy>> strategies = {
      greedy(), blossom()};
  for (const auto& strategy : strategies) {
    EXPECT_TRUE(strategy->match(0, {}).empty()) << strategy->name();
  }
  // Decoder level: an all-clear history decodes to the identity correction.
  const ToricCode code(4);
  const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette, blossom());
  const std::vector<gf2::BitVec> vacuum(4, gf2::BitVec(code.num_plaquettes()));
  EXPECT_FALSE(decoder.decode(vacuum).any());
}

TEST(MatchingDeathTest, OddDefectCountAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const std::vector<size_t> weights(9, 1);
  EXPECT_DEATH((void)greedy()->match(3, weights), "defects come in pairs");
  EXPECT_DEATH((void)blossom()->match(3, weights), "defects come in pairs");
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

// The duals stay inside int64 only for weights below 2^40. The solver checks
// the whole metric before it starts; one weight at the cap is enough.
TEST(MatchingDeathTest, BlossomRejectsWeightsFromTwoToThe40) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const size_t n = 4;
  std::vector<size_t> weights(n * n, 1);
  weights[2 * n + 3] = size_t{1} << 40;
  EXPECT_DEATH((void)blossom()->match(n, weights),
               "metric too large for exact matching duals");
  weights[2 * n + 3] = (size_t{1} << 40) - 1;
  const auto pairs = blossom()->match(n, weights);
  ASSERT_EQ(pairs.size(), n / 2);
  std::vector<int> seen(n, 0);
  for (const Match& m : pairs) {
    ++seen[m.a];
    ++seen[m.b];
  }
  EXPECT_EQ(seen, std::vector<int>(n, 1));
  EXPECT_EQ(matching_cost(pairs, n, weights), 2u);
}

// The blossom MWPM cost is a global optimum, so it can never exceed the
// greedy pairing's cost.
TEST(MatchingProperty, MwpmCostNeverExceedsGreedyOnRandomSyndromes) {
  const ToricCode code(6);
  Rng rng(71);
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
    const size_t n = defects.size();
    const std::vector<size_t> weights = spacetime_weights(
        code, defects, std::vector<uint32_t>(n, 0), 1, 1);
    const auto exact = blossom()->match(n, weights);
    const auto greedy_pairs = greedy()->match(n, weights);
    EXPECT_LE(matching_cost(exact, n, weights),
              matching_cost(greedy_pairs, n, weights));
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

// Test-only strategy: records the weight matrix it is handed and pairs the
// defects in index order.
class RecordingMatching final : public MatchingStrategy {
 public:
  [[nodiscard]] const char* name() const override { return "recording"; }
  [[nodiscard]] std::vector<Match> match(
      size_t num_defects, std::span<const size_t> weights) const override {
    num_defects_ = num_defects;
    weights_.assign(weights.begin(), weights.end());
    std::vector<Match> out;
    for (uint32_t i = 0; i + 1 < num_defects; i += 2) out.push_back({i, i + 1});
    return out;
  }
  mutable size_t num_defects_ = 0;
  mutable std::vector<size_t> weights_;
};

// The decoder's matrix fill, entry by entry, against the reference metric:
// space_weight x torus_site_distance + time_weight x |Δround|. Odd lattices
// exercise the min(d, L - d) wrap on both axes.
TEST(SpacetimeDecoder, MatcherSeesSpaceAndTimeWeightedTorusDistances) {
  for (const size_t lattice : {2, 3, 5, 16}) {
    const ToricCode code(lattice);
    const auto recorder = std::make_shared<RecordingMatching>();
    const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette, recorder,
                                        {.space_weight = 3, .time_weight = 5});
    // Every site twice, at rounds spread over 0..6.
    const size_t sites = code.num_plaquettes();
    const size_t n = 2 * sites;
    std::vector<uint32_t> site(n), round(n);
    for (size_t k = 0; k < n; ++k) {
      site[k] = static_cast<uint32_t>(k % sites);
      round[k] = static_cast<uint32_t>((k * 5) % 7);
    }
    (void)decoder.decode_defects(site, round);
    ASSERT_EQ(recorder->num_defects_, n) << "L=" << lattice;
    ASSERT_EQ(recorder->weights_.size(), n * n) << "L=" << lattice;
    size_t wrong = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        const size_t dt = round[i] > round[j] ? round[i] - round[j]
                                              : round[j] - round[i];
        const size_t want =
            3 * code.torus_site_distance(site[i], site[j]) + 5 * dt;
        wrong += recorder->weights_[i * n + j] == want ? 0 : 1;
      }
    }
    EXPECT_EQ(wrong, 0u) << "L=" << lattice;
  }
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

// 64 lanes of phenomenological plaquette histories — `rounds` noisy rounds
// with data and readout errors at p each, then one trusted row — packed for
// decode_lanes, with every lane's unpacked history kept for serial decode.
struct LaneHistories {
  PackedSyndromes packed;
  std::vector<std::vector<gf2::BitVec>> serial;
};

LaneHistories random_lane_histories(const ToricCode& code, size_t rounds,
                                    double p, Rng& rng) {
  const size_t sites = code.num_plaquettes();
  LaneHistories out;
  out.packed.resize(sites, rounds + 1);
  out.serial.resize(64);
  for (size_t lane = 0; lane < 64; ++lane) {
    gf2::BitVec errors(code.num_qubits());
    std::vector<gf2::BitVec> history;
    for (size_t t = 0; t < rounds; ++t) {
      for (size_t e = 0; e < code.num_qubits(); ++e) {
        if (rng.bernoulli(p)) errors.flip(e);
      }
      gf2::BitVec s = code.plaquette_syndrome(errors);
      for (size_t b = 0; b < sites; ++b) {
        if (rng.bernoulli(p)) s.flip(b);  // measurement error
      }
      history.push_back(s);
    }
    history.push_back(code.plaquette_syndrome(errors));  // trusted row
    for (size_t t = 0; t <= rounds; ++t) {
      for (size_t b = 0; b < sites; ++b) {
        out.packed.set(t, b, lane, history[t].get(b));
      }
    }
    out.serial[lane] = std::move(history);
  }
  return out;
}

// The batched front-end contract: lane l of decode_lanes is bit-for-bit the
// correction a serial decode of lane l's unpacked syndrome history returns.
TEST(BatchDecode, LanesAreBitIdenticalToSerialDecode) {
  const ToricCode code(6);
  const SpacetimeToricDecoder decoder(code, ToricSide::kPlaquette, blossom());
  Rng rng(91);
  const LaneHistories histories = random_lane_histories(code, 5, 0.03, rng);
  const PackedSyndromes& packed = histories.packed;
  const auto batch = decode_lanes(decoder, packed);
  ASSERT_EQ(batch.size(), 64u);
  for (size_t lane = 0; lane < 64; ++lane) {
    EXPECT_EQ(batch[lane], decoder.decode(histories.serial[lane]))
        << "lane " << lane;
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

// decode_defects and the blossom solver keep per-thread buffers. Four
// threads share every decoder at once, each walking the lattice sizes in its
// own order, so each thread's buffers grow and shrink at different times
// while the others decode; every lane must still equal the serial decode.
TEST(DecodeThreads, SharedDecodersMatchSerialDecodeLaneByLane) {
  const std::vector<size_t> lattices = {4, 6, 8, 12};
  std::deque<ToricCode> codes;
  std::deque<SpacetimeToricDecoder> decoders;
  std::vector<LaneHistories> histories;
  std::vector<std::vector<gf2::BitVec>> expected;
  Rng rng(97);
  for (const size_t lattice : lattices) {
    codes.emplace_back(lattice);
    decoders.emplace_back(codes.back(), ToricSide::kPlaquette, blossom());
    histories.push_back(random_lane_histories(codes.back(), 3, 0.04, rng));
    std::vector<gf2::BitVec> serial;
    for (const auto& lane_history : histories.back().serial) {
      serial.push_back(decoders.back().decode(lane_history));
    }
    expected.push_back(std::move(serial));
  }

  constexpr size_t kThreads = 4;
  constexpr size_t kSweeps = 3;
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t step = 0; step < kSweeps * lattices.size(); ++step) {
        // Even threads walk the sizes upward, odd ones downward, each from
        // its own starting size.
        const size_t k = t % 2 == 0 ? (t + step) % lattices.size()
                                    : (t + lattices.size() * kSweeps - step) %
                                          lattices.size();
        const auto lanes = decode_lanes(decoders[k], histories[k].packed);
        for (size_t lane = 0; lane < 64; ++lane) {
          mismatches[t] += lanes[lane] == expected[k][lane] ? 0 : 1;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
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

// A scale that is not finite and positive, or so large that a weight cannot
// be rounded to an integer, fails a check instead of collapsing both weights
// to 1. The default scale's weights are pinned alongside.
TEST(DetectorErrorModelDeathTest, WeightsAtRejectsScalesThatCannotRound) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const ToricCode code(4);
  const ToricDem dem = ToricDem::build(code, ToricSide::kPlaquette);
  const SpacetimeOptions weights = dem.weights_at(0.01);
  EXPECT_EQ(weights.space_weight, 65u);
  EXPECT_EQ(weights.time_weight, 51u);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double scale : {0.0, -3.0, kNan, kInf}) {
    EXPECT_DEATH((void)dem.weights_at(0.01, scale),
                 "weight scale must be finite and positive")
        << scale;
  }
  EXPECT_DEATH((void)dem.weights_at(0.01, 1e300),
               "scaled weights must fit in an integer");
}

// The serial extraction round's draws, pinned before the round read its
// edges from the check-edge table: every round's measured flips and the
// final X/Z frames of 200 shots, L = 3 and 4, both sides (the star side runs
// the Hadamard sandwich), under uniform, Z-biased, erasing and leaking noise.
// A change that only reorganizes the round or FrameSim's op bodies must keep
// every constant.
TEST(ExtractionRoundFingerprint, SerialShotsMatchRecorded) {
  sim::NoiseParams erasing = sim::NoiseParams::uniform_gate(0.02, 0.02);
  erasing.p_erase = 0.02;
  sim::NoiseParams leaking = sim::NoiseParams::uniform_gate(0.02, 0.02);
  leaking.p_leak = 0.02;
  const std::array<sim::NoiseParams, 4> settings = {
      sim::NoiseParams::uniform_gate(0.02, 0.02),
      sim::NoiseParams::biased_gate(0.02, 10.0, 0.02), erasing, leaking};
  const std::array<uint64_t, 4> expected = {
      0x9a4c35611ed3ef13ull, 0xab56dfff52d8bcb0ull, 0x8e6f0bb1ff34d1b2ull,
      0x1b27b0da2c164ea9ull};
  const auto add_words = [](Fnv1a& hash, const gf2::BitVec& v) {
    for (size_t w = 0; w < v.num_words(); ++w) hash.add(v.word(w));
  };
  for (size_t i = 0; i < settings.size(); ++i) {
    SCOPED_TRACE(i);
    Fnv1a hash;
    for (const size_t l : {3, 4}) {
      const ToricCode code(l);
      for (const ToricSide side : {ToricSide::kPlaquette, ToricSide::kStar}) {
        gf2::BitVec flips;
        for (uint64_t shot = 0; shot < 200; ++shot) {
          sim::FrameSim sim(code.num_qubits() + code.num_plaquettes(),
                            7000 + shot);
          ft::StochasticInjector injector(settings[i]);
          for (size_t t = 0; t < l; ++t) {
            run_extraction_round(sim, injector, code, side, flips);
            add_words(hash, flips);
          }
          add_words(hash, sim.x_frame());
          add_words(hash, sim.z_frame());
        }
      }
    }
    EXPECT_EQ(hash.value(), expected[i]) << std::hex << hash.value();
  }
}

// toric-circuit's decoder weights come from these counts; all five fields
// are pinned exactly (hex-float literals), on both sides, unbiased and at a
// Z bias of 10.
TEST(ExtractionRoundFingerprint, DemCountsMatchRecorded) {
  struct Pin {
    ToricSide side;
    bool biased;
    ToricDem::Counts counts;
  };
  const std::array<Pin, 4> pins = {{
      {ToricSide::kPlaquette, false,
       {0x1.333333333332dp+5, 0x1.8888888888888p+5, 0x1.1111111111106p+4, 0,
        128}},
      {ToricSide::kStar, false,
       {0x1.333333333332dp+5, 0x1.19999999999c4p+6, 0x1.1111111111106p+4, 0,
        160}},
      {ToricSide::kPlaquette, true,
       {0x1.333333333332fp+3, 0x1.3bbbbbbbbbbcp+5, 0x1.1111111111108p+2, 0,
        128}},
      {ToricSide::kStar, true,
       {0x1.a666666666674p+5, 0x1.ffffffffffff3p+5, 0x1.777777777777dp+4, 0,
        160}},
  }};
  const ToricCode code(4);
  for (const Pin& pin : pins) {
    const ToricDem dem =
        pin.biased
            ? ToricDem::build(code, pin.side,
                              sim::NoiseParams::biased_gate(0.01, 10.0, 0.01))
            : ToricDem::build(code, pin.side);
    const ToricDem::Counts& c = dem.counts();
    EXPECT_EQ(c.space, pin.counts.space);
    EXPECT_EQ(c.time, pin.counts.time);
    EXPECT_EQ(c.diag, pin.counts.diag);
    EXPECT_EQ(c.far, pin.counts.far);
    EXPECT_EQ(c.locations, pin.counts.locations);
  }
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
