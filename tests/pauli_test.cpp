#include <gtest/gtest.h>

#include <array>
#include <complex>
#include <ostream>

#include "pauli/pauli_string.h"

namespace ftqc::pauli {
namespace {

using cd = std::complex<double>;

TEST(PauliString, ParseAndPrint) {
  const auto p = PauliString::from_string("IXYZ");
  EXPECT_EQ(p.num_qubits(), 4u);
  EXPECT_EQ(p.pauli_at(0), 'I');
  EXPECT_EQ(p.pauli_at(1), 'X');
  EXPECT_EQ(p.pauli_at(2), 'Y');
  EXPECT_EQ(p.pauli_at(3), 'Z');
  EXPECT_EQ(p.to_string(), "+IXYZ");
  EXPECT_EQ(PauliString::from_string("-XX").to_string(), "-XX");
  EXPECT_EQ(PauliString::from_string("iZ").to_string(), "+iZ");
  EXPECT_EQ(PauliString::from_string("-iY").to_string(), "-iY");
}

TEST(PauliString, WeightAndIdentity) {
  EXPECT_EQ(PauliString::from_string("IXYZ").weight(), 3u);
  EXPECT_TRUE(PauliString(5).is_identity());
  EXPECT_FALSE(PauliString::from_string("IIIX").is_identity());
}

TEST(PauliString, StabilizerGeneratorsOfSteaneCodeCommute) {
  // Eq. (18): the six generators of Steane's code all commute pairwise.
  const std::array<PauliString, 6> gens = {
      PauliString::from_string("IIIZZZZ"), PauliString::from_string("IZZIIZZ"),
      PauliString::from_string("ZIZIZIZ"), PauliString::from_string("IIIXXXX"),
      PauliString::from_string("IXXIIXX"), PauliString::from_string("XIXIXIX")};
  for (const auto& a : gens) {
    for (const auto& b : gens) {
      EXPECT_TRUE(a.commutes_with(b));
    }
  }
}

TEST(PauliString, AnticommutationBasics) {
  const auto x = PauliString::from_string("X");
  const auto y = PauliString::from_string("Y");
  const auto z = PauliString::from_string("Z");
  EXPECT_FALSE(x.commutes_with(z));
  EXPECT_FALSE(x.commutes_with(y));
  EXPECT_FALSE(y.commutes_with(z));
  EXPECT_TRUE(x.commutes_with(x));
  // XX vs ZZ: two anticommuting positions -> commute overall.
  EXPECT_TRUE(PauliString::from_string("XX").commutes_with(
      PauliString::from_string("ZZ")));
  EXPECT_FALSE(PauliString::from_string("XI").commutes_with(
      PauliString::from_string("ZI")));
}

// The single-qubit multiplication table, exhaustively: products and phases.
struct MulCase {
  const char* a;
  const char* b;
  const char* expect;
};

// CTest names each case after its printed parameter ("…/X_times_Y"); without
// this, gtest prints the struct's bytes, i.e. the literals' addresses, and
// the names change with every build and run.
void PrintTo(const MulCase& c, std::ostream* os) {
  *os << c.a << "_times_" << c.b;
}

class PauliMulTable : public ::testing::TestWithParam<MulCase> {};

TEST_P(PauliMulTable, Product) {
  const auto& c = GetParam();
  const auto prod =
      PauliString::from_string(c.a) * PauliString::from_string(c.b);
  EXPECT_EQ(prod.to_string(), c.expect)
      << c.a << " * " << c.b << " should be " << c.expect;
}

INSTANTIATE_TEST_SUITE_P(
    SingleQubit, PauliMulTable,
    ::testing::Values(MulCase{"X", "X", "+I"}, MulCase{"Y", "Y", "+I"},
                      MulCase{"Z", "Z", "+I"}, MulCase{"X", "Y", "+iZ"},
                      MulCase{"Y", "X", "-iZ"}, MulCase{"Y", "Z", "+iX"},
                      MulCase{"Z", "Y", "-iX"}, MulCase{"Z", "X", "+iY"},
                      MulCase{"X", "Z", "-iY"}, MulCase{"I", "X", "+X"},
                      MulCase{"Z", "I", "+Z"}));

INSTANTIATE_TEST_SUITE_P(
    MultiQubit, PauliMulTable,
    ::testing::Values(MulCase{"XX", "ZZ", "-YY"},   // (-iY)(-iY) = -YY
                      MulCase{"XZ", "ZX", "+YY"},   // (-iY)(+iY) = +YY
                      MulCase{"XYZ", "XYZ", "+III"},
                      MulCase{"XIZ", "ZIX", "+YIY"}));

TEST(PauliString, ProductAssociativity) {
  const auto a = PauliString::from_string("XYZI");
  const auto b = PauliString::from_string("YYXZ");
  const auto c = PauliString::from_string("ZIXY");
  EXPECT_EQ(((a * b) * c).to_string(), (a * (b * c)).to_string());
}

TEST(PauliString, SelfInverseUpToPhase) {
  const auto p = PauliString::from_string("XYZYX");
  const auto sq = p * p;
  EXPECT_TRUE(sq.equals_up_to_phase(PauliString(5)));
  EXPECT_EQ(sq.phase_exponent(), 0);  // Paulis are involutions
}

// Verify the phase convention against explicit 2x2 matrices.
using Mat2 = std::array<std::array<cd, 2>, 2>;

Mat2 matrix_of(char pauli) {
  switch (pauli) {
    case 'X': return {{{cd(0), cd(1)}, {cd(1), cd(0)}}};
    case 'Y': return {{{cd(0), cd(0, -1)}, {cd(0, 1), cd(0)}}};
    case 'Z': return {{{cd(1), cd(0)}, {cd(0), cd(-1)}}};
    default: return {{{cd(1), cd(0)}, {cd(0), cd(1)}}};
  }
}

Mat2 mul(const Mat2& a, const Mat2& b) {
  Mat2 c{};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      c[i][j] = a[i][0] * b[0][j] + a[i][1] * b[1][j];
    }
  }
  return c;
}

TEST(PauliString, PhaseMatchesMatrixAlgebraExhaustively) {
  const char paulis[] = {'I', 'X', 'Y', 'Z'};
  const cd phases[] = {cd(1), cd(0, 1), cd(-1), cd(0, -1)};
  for (char a : paulis) {
    for (char b : paulis) {
      const auto pa = PauliString::single(1, 0, a);
      const auto pb = PauliString::single(1, 0, b);
      const auto prod = pa * pb;
      const Mat2 expected = mul(matrix_of(a), matrix_of(b));
      const Mat2 base = matrix_of(prod.pauli_at(0));
      const cd phase = phases[prod.phase_exponent()];
      for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
          EXPECT_NEAR(std::abs(phase * base[i][j] - expected[i][j]), 0.0, 1e-12)
              << a << " * " << b;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ftqc::pauli
