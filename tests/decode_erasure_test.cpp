// Erasure-aware decoding (decode/erasure.h): the Delfosse-Zémor peeling
// fast path must exactly correct any error supported on a cycle-free
// erasure, the Dijkstra matching stage must stay a valid decoder with and
// without heralds, and exploiting heralds must strictly beat ignoring them
// on the same shots.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "decode/blossom.h"
#include "decode/erasure.h"
#include "sim/noise_model.h"
#include "topo/toric_code.h"

namespace ftqc::decode {
namespace {

using topo::ToricCode;

std::shared_ptr<const BlossomMatching> blossom() {
  static const auto strategy = std::make_shared<const BlossomMatching>();
  return strategy;
}

// Residual after decoding: empty syndrome and no logical flip = success.
void expect_exact_correction(const ToricCode& code,
                             const ErasureAwareDecoder& decoder,
                             const gf2::BitVec& errors,
                             const gf2::BitVec& heralds) {
  const gf2::BitVec syndrome = code.plaquette_syndrome(errors);
  gf2::BitVec residual = errors;
  residual ^= decoder.decode(syndrome, heralds);
  EXPECT_FALSE(code.plaquette_syndrome(residual).any())
      << "correction must clear the syndrome";
  const auto [f1, f2] = code.logical_x_flips(residual);
  EXPECT_FALSE(f1 || f2) << "correction must not be logical";
}

// Any error pattern supported on a forest-shaped (cycle-free) erasure is
// corrected exactly by peeling alone: every cluster has even defect parity
// and the leaf-first sweep reproduces the error up to stabilizers.
TEST(ErasurePeeling, CorrectsEveryErrorOnForestErasure) {
  const ToricCode code(4);
  const ErasureAwareDecoder decoder(code, ToricSide::kPlaquette, blossom());
  // A bent 5-edge path: no cycle, no wrap.
  const uint32_t path[] = {code.h_edge(0, 0), code.h_edge(1, 0),
                           code.v_edge(2, 0), code.h_edge(2, 1),
                           code.v_edge(3, 1)};
  gf2::BitVec heralds(code.num_qubits());
  for (uint32_t e : path) heralds.set(e, true);
  for (uint32_t subset = 0; subset < (1u << 5); ++subset) {
    gf2::BitVec errors(code.num_qubits());
    for (size_t i = 0; i < 5; ++i) {
      if ((subset >> i) & 1u) errors.set(path[i], true);
    }
    expect_exact_correction(code, decoder, errors, heralds);
  }
}

// Pure erasure noise below the bond-percolation threshold: peeling must
// clear the syndrome on every shot, and the logical failure rate stays far
// below the herald-blind decode of the very same shots (for which each
// erased edge is an invisible 50/50 error).
TEST(ErasurePeeling, PureErasureAwareBeatsBlind) {
  const ToricCode code(6);
  const ErasureAwareDecoder decoder(code, ToricSide::kPlaquette, blossom());
  Rng rng(0xE20A);
  const double p_erase = 0.25;
  const size_t shots = 400;
  size_t aware_fails = 0, blind_fails = 0;
  for (size_t shot = 0; shot < shots; ++shot) {
    gf2::BitVec heralds(code.num_qubits());
    gf2::BitVec errors(code.num_qubits());
    for (size_t e = 0; e < code.num_qubits(); ++e) {
      if (rng.next_double() >= p_erase) continue;
      heralds.set(e, true);
      if (rng.next_double() < 0.5) errors.set(e, true);
    }
    const gf2::BitVec syndrome = code.plaquette_syndrome(errors);
    for (const bool aware : {false, true}) {
      gf2::BitVec residual = errors;
      residual ^= decoder.decode(syndrome, aware ? heralds : gf2::BitVec());
      ASSERT_FALSE(code.plaquette_syndrome(residual).any()) << shot;
      const auto [f1, f2] = code.logical_x_flips(residual);
      (aware ? aware_fails : blind_fails) += (f1 || f2) ? 1 : 0;
    }
  }
  // p_erase = 0.25 is comfortably below percolation (0.5) but the blind
  // view — 12.5% iid X — is above the matching threshold (~10.3%).
  EXPECT_LT(aware_fails, blind_fails);
  EXPECT_LT(static_cast<double>(aware_fails) / shots, 0.10);
  EXPECT_GT(static_cast<double>(blind_fails) / shots, 0.10);
}

// Empty heralds = ordinary matching: the decoder must stay a valid decoder
// (syndrome always cleared) and be deterministic shot for shot.
TEST(ErasureDecoder, BlindModeClearsEverySyndromeDeterministically) {
  const ToricCode code(5);
  const ErasureAwareDecoder decoder(code, ToricSide::kPlaquette, blossom());
  Rng rng(0xE20B);
  for (size_t shot = 0; shot < 100; ++shot) {
    gf2::BitVec errors(code.num_qubits());
    for (size_t e = 0; e < code.num_qubits(); ++e) {
      if (rng.next_double() < 0.08) errors.set(e, true);
    }
    const gf2::BitVec syndrome = code.plaquette_syndrome(errors);
    const gf2::BitVec c1 = decoder.decode(syndrome, gf2::BitVec());
    const gf2::BitVec c2 = decoder.decode(syndrome, gf2::BitVec());
    EXPECT_TRUE(c1 == c2);
    gf2::BitVec residual = errors;
    residual ^= c1;
    EXPECT_FALSE(code.plaquette_syndrome(residual).any());
  }
}

// The star side walks the primal (vertex) graph; same invariants.
TEST(ErasureDecoder, StarSideClearsAndPeels) {
  const ToricCode code(4);
  const ErasureAwareDecoder decoder(code, ToricSide::kStar, blossom());
  Rng rng(0xE20C);
  for (size_t shot = 0; shot < 100; ++shot) {
    gf2::BitVec heralds(code.num_qubits());
    gf2::BitVec errors(code.num_qubits());
    for (size_t e = 0; e < code.num_qubits(); ++e) {
      if (rng.next_double() < 0.15) {
        heralds.set(e, true);
        if (rng.next_double() < 0.5) errors.set(e, true);
      }
      if (rng.next_double() < 0.03) errors.flip(e);
    }
    const gf2::BitVec syndrome = code.star_syndrome(errors);
    gf2::BitVec residual = errors;
    residual ^= decoder.decode(syndrome, heralds);
    EXPECT_FALSE(code.star_syndrome(residual).any()) << shot;
  }
}

// The matching stage must route corrections THROUGH the erasure support:
// two defects whose erased connection is longer than the geodesic still
// decode exactly, because erased edges cost ~nothing.
TEST(ErasureDecoder, MatchingThreadsTheErasureSupport) {
  const ToricCode code(6);
  const ErasureAwareDecoder decoder(code, ToricSide::kPlaquette, blossom());
  // An error on a bent chain of erased edges plus one defect pair whose
  // direct geodesic (2 steps) is shorter than the erased detour (4 steps):
  // the aware decoder must still find the zero-residual correction.
  const uint32_t chain[] = {code.h_edge(1, 1), code.v_edge(2, 1),
                            code.v_edge(2, 2), code.h_edge(2, 3)};
  gf2::BitVec heralds(code.num_qubits());
  gf2::BitVec errors(code.num_qubits());
  for (uint32_t e : chain) {
    heralds.set(e, true);
    errors.set(e, true);
  }
  expect_exact_correction(code, decoder, errors, heralds);
}

// The paired-shot harness drives real FrameSim channels: the decoder's
// invariants must hold and the aware verdict can only improve on the blind
// one in aggregate.
TEST(ErasureMemory, AwareNeverWorseInAggregate) {
  const ToricCode code(6);
  const ErasureAwareDecoder decoder(code, ToricSide::kPlaquette, blossom());
  sim::NoiseParams params;
  params.eps_store = 0.02;
  params.p_erase = 0.20;
  size_t aware_fails = 0, blind_fails = 0, heralds_seen = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const ErasureMemoryResult r = run_erasure_memory(decoder, params, seed);
    ASSERT_TRUE(r.blind_cleared) << seed;
    ASSERT_TRUE(r.aware_cleared) << seed;
    aware_fails += r.aware_fail ? 1 : 0;
    blind_fails += r.blind_fail ? 1 : 0;
    heralds_seen += r.num_heralds;
  }
  EXPECT_GT(heralds_seen, 0u);
  EXPECT_LT(aware_fails, blind_fails);
}

// Biased channels shift which side of the decoder hurts: under pure Z bias
// the star side (sensitive to Z errors) sees nearly every fault and the
// plaquette side nearly none.
TEST(ErasureMemory, ZBiasLoadsTheStarSide) {
  const ToricCode code(6);
  const ErasureAwareDecoder plaq(code, ToricSide::kPlaquette, blossom());
  const ErasureAwareDecoder star(code, ToricSide::kStar, blossom());
  sim::NoiseParams params;
  params.eps_store = 0.08;
  params.bias_x = 1.0;
  params.bias_y = 1.0;
  params.bias_z = 100.0;
  size_t plaq_fails = 0, star_fails = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    plaq_fails += run_erasure_memory(plaq, params, seed).blind_fail ? 1 : 0;
    star_fails += run_erasure_memory(star, params, seed).blind_fail ? 1 : 0;
  }
  EXPECT_LT(plaq_fails, star_fails);
}

}  // namespace
}  // namespace ftqc::decode
