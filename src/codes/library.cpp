#include "codes/library.h"

#include "codes/css.h"
#include "gf2/hamming.h"

namespace ftqc::codes {

using pauli::PauliString;

const StabilizerCode& steane() {
  static const StabilizerCode code = [] {
    // Self-dual CSS construction, with the paper's transversal logicals.
    std::vector<PauliString> generators = {
        PauliString::from_string("IIIZZZZ"), PauliString::from_string("IZZIIZZ"),
        PauliString::from_string("ZIZIZIZ"), PauliString::from_string("IIIXXXX"),
        PauliString::from_string("IXXIIXX"), PauliString::from_string("XIXIXIX")};
    return StabilizerCode("Steane [[7,1,3]]", 7, std::move(generators),
                          {PauliString::from_string("XXXXXXX")},
                          {PauliString::from_string("ZZZZZZZ")});
  }();
  return code;
}

const StabilizerCode& five_qubit() {
  static const StabilizerCode code = [] {
    std::vector<PauliString> generators = {
        PauliString::from_string("XZZXI"), PauliString::from_string("IXZZX"),
        PauliString::from_string("XIXZZ"), PauliString::from_string("ZXIXZ")};
    return StabilizerCode("Five-qubit [[5,1,3]]", 5, std::move(generators),
                          {PauliString::from_string("XXXXX")},
                          {PauliString::from_string("ZZZZZ")});
  }();
  return code;
}

const StabilizerCode& shor9() {
  static const StabilizerCode code = [] {
    std::vector<PauliString> generators = {
        PauliString::from_string("ZZIIIIIII"), PauliString::from_string("IZZIIIIII"),
        PauliString::from_string("IIIZZIIII"), PauliString::from_string("IIIIZZIII"),
        PauliString::from_string("IIIIIIZZI"), PauliString::from_string("IIIIIIIZZ"),
        PauliString::from_string("XXXXXXIII"), PauliString::from_string("IIIXXXXXX")};
    // For Shor's code the transversal operators swap roles: X^⊗9 acts as the
    // logical Z (it flips the sign of each GHZ factor) and Z^⊗9 as logical X.
    return StabilizerCode("Shor [[9,1,3]]", 9, std::move(generators),
                          {PauliString::from_string("ZZZZZZZZZ")},
                          {PauliString::from_string("XXXXXXXXX")});
  }();
  return code;
}

const StabilizerCode& hamming15() {
  static const StabilizerCode code = [] {
    const auto h = gf2::hamming_check_matrix(4);
    return make_css_code("Hamming CSS [[15,7,3]]", h, h);
  }();
  return code;
}

const StabilizerCode& reed_muller15() {
  static const StabilizerCode code = [] {
    // Qubit q <-> the nonzero 4-bit vector q+1. Generator supports are the
    // evaluation vectors of the degree-1 monomials v_i (X side, weight 8)
    // and additionally the degree-2 monomials v_i·v_j (Z side, weight 4).
    std::vector<PauliString> generators;
    const auto support = [](int i, int j) {
      gf2::BitVec bits(15);
      for (size_t q = 0; q < 15; ++q) {
        const unsigned v = static_cast<unsigned>(q) + 1;
        const bool in = ((v >> i) & 1u) && ((v >> j) & 1u);
        bits.set(q, in);
      }
      return bits;
    };
    for (int i = 0; i < 4; ++i) {
      PauliString g(15);
      g.x_part() = support(i, i);
      generators.push_back(g);
    }
    for (int i = 0; i < 4; ++i) {
      PauliString g(15);
      g.z_part() = support(i, i);
      generators.push_back(g);
    }
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        PauliString g(15);
        g.z_part() = support(i, j);
        generators.push_back(g);
      }
    }
    // Logical X is the all-ones pattern (the complement map on RM
    // codewords); logical Z is any weight-3 word of the [15,11,3] Hamming
    // dual — qubits {0,1,2} = vectors {0001, 0010, 0011}.
    PauliString lx(15), lz(15);
    for (size_t q = 0; q < 15; ++q) lx.set_pauli(q, 'X');
    for (size_t q = 0; q < 3; ++q) lz.set_pauli(q, 'Z');
    return StabilizerCode("Reed-Muller [[15,1,3]]", 15, std::move(generators),
                          {lx}, {lz});
  }();
  return code;
}

}  // namespace ftqc::codes
