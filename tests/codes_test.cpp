#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <ostream>

#include "codes/concatenated.h"
#include "codes/css.h"
#include "codes/library.h"
#include "codes/lookup_decoder.h"
#include "fnv1a.h"
#include "gf2/hamming.h"

namespace ftqc::codes {
namespace {

using pauli::PauliString;

TEST(SteaneCode, ParametersAndGenerators) {
  const auto& code = steane();
  EXPECT_EQ(code.n(), 7u);
  EXPECT_EQ(code.k(), 1u);
  EXPECT_EQ(code.num_generators(), 6u);
  EXPECT_EQ(code.brute_force_distance(), 3u);
}

TEST(SteaneCode, CssConstructionMatchesEq18Generators) {
  // Building the CSS code from the Hamming matrix reproduces a code with the
  // same stabilizer group as the hand-written Eq. (18) generators.
  const gf2::Hamming743 hamming;
  const auto css = make_css_code("steane-css", hamming.check_matrix(),
                                 hamming.check_matrix());
  const auto& ref = steane();
  for (const auto& g : css.generators()) {
    EXPECT_TRUE(ref.in_stabilizer_group(g)) << g.to_string();
  }
  for (const auto& g : ref.generators()) {
    EXPECT_TRUE(css.in_stabilizer_group(g)) << g.to_string();
  }
}

TEST(SteaneCode, SyndromeIdentifiesSingleErrors) {
  const auto& code = steane();
  // Distinct nonzero syndromes for all 21 single-qubit errors.
  std::set<uint64_t> seen;
  for (size_t q = 0; q < 7; ++q) {
    for (char c : {'X', 'Y', 'Z'}) {
      const auto syn = code.syndrome(PauliString::single(7, q, c));
      EXPECT_TRUE(syn.any()) << "single error must be detected";
      seen.insert(syn.to_u64());
    }
  }
  EXPECT_EQ(seen.size(), 21u);
}

TEST(SteaneCode, TwoBitFlipsMakeLogicalError) {
  // §2 / Eq. (12): two bit flips in a block are misdiagnosed; after recovery
  // the block has suffered a logical X.
  const auto& code = steane();
  const LookupDecoder decoder(code);
  PauliString error(7);
  error.set_pauli(1, 'X');
  error.set_pauli(4, 'X');
  const auto effect = decoder.residual_effect(error);
  EXPECT_TRUE(effect.x_flips.get(0));
  EXPECT_FALSE(effect.z_flips.get(0));
}

TEST(SteaneCode, BitPlusPhaseOnDifferentQubitsRecovers) {
  // §2: "If one qubit in the block has a phase error, and another one has a
  // bit flip error, then recovery will be successful."
  const auto& code = steane();
  const LookupDecoder decoder(code);
  PauliString error(7);
  error.set_pauli(2, 'X');
  error.set_pauli(5, 'Z');
  EXPECT_TRUE(decoder.corrects(error));
}

TEST(FiveQubitCode, ParametersAndDistance) {
  const auto& code = five_qubit();
  EXPECT_EQ(code.n(), 5u);
  EXPECT_EQ(code.k(), 1u);
  EXPECT_EQ(code.brute_force_distance(), 3u);
}

TEST(ShorCode, ParametersAndDistance) {
  const auto& code = shor9();
  EXPECT_EQ(code.n(), 9u);
  EXPECT_EQ(code.k(), 1u);
  EXPECT_EQ(code.brute_force_distance(), 3u);
}

TEST(ShorCode, IsDegenerate) {
  // Z1Z2 and Z2Z3-type pairs share syndromes: footnote e of §3.6. Two
  // distinct weight-1 Z errors in the same triple have the same syndrome and
  // their product lies in the stabilizer.
  const auto& code = shor9();
  const auto z0 = PauliString::single(9, 0, 'Z');
  const auto z1 = PauliString::single(9, 1, 'Z');
  EXPECT_EQ(code.syndrome(z0).to_u64(), code.syndrome(z1).to_u64());
  EXPECT_TRUE(code.in_stabilizer_group(z0 * z1));
}

TEST(Hamming15Code, ParametersMatchSection36) {
  const auto& code = hamming15();
  EXPECT_EQ(code.n(), 15u);
  EXPECT_EQ(code.k(), 7u);  // n - k = 8 generators
  EXPECT_EQ(code.num_generators(), 8u);
}

TEST(Hamming15Code, LogicalAlgebraHolds) {
  // validate() runs in the constructor; spot-check Eq. (29) directly too.
  const auto& code = hamming15();
  for (size_t i = 0; i < code.k(); ++i) {
    for (size_t j = 0; j < code.k(); ++j) {
      EXPECT_EQ(code.logical_x(i).commutes_with(code.logical_z(j)), i != j);
    }
  }
}

// All single-qubit errors are corrected perfectly on every library code.
class SingleErrorCorrection
    : public ::testing::TestWithParam<const StabilizerCode*> {};

TEST_P(SingleErrorCorrection, AllSingleErrorsCorrected) {
  const auto& code = *GetParam();
  const LookupDecoder decoder(code);
  for (size_t q = 0; q < code.n(); ++q) {
    for (char c : {'X', 'Y', 'Z'}) {
      const auto error = PauliString::single(code.n(), q, c);
      EXPECT_TRUE(decoder.corrects(error))
          << code.name() << " failed on " << error.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LibraryCodes, SingleErrorCorrection,
                         ::testing::Values(&steane(), &five_qubit(), &shor9(),
                                           &hamming15()));

}  // namespace

// gtest lists a value-parameterized test with its printed parameter, and
// CTest names each discovered test after it ("…/Steane713"). Print the
// code's alphanumeric name, not its address, so the names are the same in
// every build and run.
void PrintTo(const StabilizerCode* code, std::ostream* os) {
  for (char c : code->name()) {
    if (std::isalnum(static_cast<unsigned char>(c))) *os << c;
  }
}

namespace {

TEST(LookupDecoder, TableCoversEverySyndrome) {
  EXPECT_EQ(LookupDecoder(steane()).table_size(), 64u);
  EXPECT_EQ(LookupDecoder(five_qubit()).table_size(), 16u);
  EXPECT_EQ(LookupDecoder(shor9()).table_size(), 256u);
  EXPECT_EQ(LookupDecoder(hamming15()).table_size(), 256u);
}

TEST(LookupDecoder, MinWeightRepresentatives) {
  // For the Steane code every nonzero syndrome must decode to weight <= 2
  // (any syndrome is reachable by one X plus one Z on possibly equal qubits).
  const LookupDecoder decoder(steane());
  for (uint64_t s = 1; s < 64; ++s) {
    gf2::BitVec syn(6);
    for (size_t b = 0; b < 6; ++b) syn.set(b, (s >> b) & 1);
    EXPECT_LE(decoder.decode(syn).weight(), 2u);
  }
}

// Every table entry of the five library codes, hashed in syndrome order
// (X bits, Z bits and phase of each stored correction). Ties between
// equal-weight corrections are broken by the breadth-first visit order, and
// that choice reaches the recovery drivers' corrections and logical
// verdicts, so a construction change must keep the order, not just weights.
TEST(LookupDecoder, TablesMatchRecordedFingerprint) {
  Fnv1a hash;
  for (const auto* code : {&five_qubit(), &steane(), &shor9(), &hamming15(),
                           &reed_muller15()}) {
    const LookupDecoder decoder(*code);
    const size_t m = code->num_generators();
    ASSERT_EQ(decoder.table_size(), size_t{1} << m) << code->name();
    for (uint64_t s = 0; s < (uint64_t{1} << m); ++s) {
      gf2::BitVec syndrome(m);
      syndrome.set_word(0, s);
      const PauliString correction = decoder.decode(syndrome);
      ASSERT_EQ(code->syndrome(correction), syndrome) << code->name();
      for (size_t w = 0; w < correction.x_part().num_words(); ++w) {
        hash.add(correction.x_part().word(w));
        hash.add(correction.z_part().word(w));
      }
      hash.add(correction.phase_exponent());
    }
  }
  EXPECT_EQ(hash.value(), 0xf98cc4504d421477ull);
}

TEST(ConcatenatedSteane, BlockSizes) {
  EXPECT_EQ(ConcatenatedSteane(1).block_size(), 7u);
  EXPECT_EQ(ConcatenatedSteane(2).block_size(), 49u);
  EXPECT_EQ(ConcatenatedSteane(3).block_size(), 343u);
}

TEST(ConcatenatedSteane, SingleErrorPerSubblockDecodes) {
  // Level 2: one flip in each of the seven subblocks is still corrected.
  const ConcatenatedSteane code(2);
  gf2::BitVec errors(49);
  for (size_t b = 0; b < 7; ++b) errors.set(7 * b + (b % 7), true);
  EXPECT_FALSE(code.decode_logical(errors));
}

TEST(ConcatenatedSteane, TwoFlipsInOneSubblockPropagateOneLevel) {
  // Two flips inside a single subblock flip that subblock's logical value,
  // but the level-2 block absorbs one subblock failure.
  const ConcatenatedSteane code(2);
  gf2::BitVec errors(49);
  errors.set(0, true);
  errors.set(1, true);
  const auto level1 = code.decode_to_level(errors, 1);
  EXPECT_TRUE(level1[0]);  // subblock 0 failed
  EXPECT_FALSE(code.decode_logical(errors));  // but level 2 recovers
}

TEST(ConcatenatedSteane, FlowMapQuadraticCoefficientIs21) {
  // Eq. (33): p_1 = 21 p_0^2 + O(p_0^3).
  const double p = 1e-4;
  const double p1 = ConcatenatedSteane::block_failure_exact(p);
  EXPECT_NEAR(p1 / (p * p), 21.0, 0.1);
}

TEST(ConcatenatedSteane, CodeCapacityThresholdNearInverse21) {
  // The exact fixed point lies near, but not exactly at, 1/21 (Eq. 33 keeps
  // only the quadratic term).
  const double threshold = ConcatenatedSteane::code_capacity_threshold();
  EXPECT_GT(threshold, 0.02);
  EXPECT_LT(threshold, 0.10);
}

TEST(ConcatenatedSteane, MonteCarloMatchesExactFlowAtLevel1) {
  const ConcatenatedSteane code(1);
  Rng rng(77);
  const double p = 0.02;
  const double mc = code.logical_failure_rate(p, 200000, rng);
  const double exact = ConcatenatedSteane::block_failure_exact(p);
  EXPECT_NEAR(mc, exact, 5e-4);
}

TEST(ConcatenatedSteane, ErrorRateShrinksDoublyExponentially) {
  // Below threshold, iterating the exact flow map gives Eq. (36)-style
  // double-exponential suppression.
  double p = 0.01;
  double prev = p;
  for (int level = 0; level < 4; ++level) {
    const double next = ConcatenatedSteane::block_failure_exact(prev);
    EXPECT_LT(next, prev * prev * 25);  // ~21 p^2 scaling
    prev = next;
  }
  EXPECT_LT(prev, 1e-10);  // four levels: p ~ 21^15 p0^16 ~ 5e-13
}

}  // namespace
}  // namespace ftqc::codes
