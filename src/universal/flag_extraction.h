#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "codes/lookup_decoder.h"
#include "codes/stabilizer_code.h"
#include "pauli/pauli_string.h"
#include "sim/circuit.h"

namespace ftqc::universal {

// Flag-qubit syndrome extraction (Postler et al., after Chao-Reichardt):
// one bare syndrome ancilla A plus one flag qubit F replace the verified
// w-bit cat state of the Shor method. The ancilla couples to the generator's
// support through a controlled-Pauli comb; two CX(A, F) gates bracket the
// middle of the comb, so any ancilla X fault that could spread to a
// weight >= 2 "hook" error on the data also flips F. A fired flag does not
// say *which* hook landed — it narrows the possibilities to a small,
// position-dependent set that a follow-up (unflagged) syndrome round can
// disambiguate. That conditional decode table is FlagDecodeTable below.
//
// Cost per generator: 2 ancilla qubits and w+2 two-qubit gates, against the
// Shor method's w-qubit cat + check qubit (w+1 ancillas before verification
// retries) — the trade bench E19 quantifies.

// The extraction circuit for one generator. `order` lists the generator's
// support qubits in comb order (it must be exactly the support); `ancilla`
// and `flag` are scratch qubit indices outside the data block. With
// `flagged` false the flag qubit is omitted entirely — the bare comb used
// for the follow-up rounds, which measures one bit instead of two.
//
// Measurement rows: [0] = X-basis ancilla readout (the syndrome bit),
// [1] = Z-basis flag readout (flagged builds only).
//
// Fault-propagation contract (what makes the decode table sound):
//  * Z on A only flips the syndrome readout — it never reaches F or data.
//  * Data errors never reach F (Z propagates target->control through CX as
//    Z on A; X on a CZ target adds Z on A; neither has an X component on A).
//    So the flag fires only for genuine ancilla X faults.
//  * X on A after comb position k spreads the generator's Paulis onto the
//    suffix order[k..w-1] (the hook) and, if it happens between the two
//    CX(A, F), flips the flag.
[[nodiscard]] sim::Circuit flag_extraction_circuit(
    const pauli::PauliString& generator, std::span<const uint32_t> order,
    uint32_t ancilla, uint32_t flag, bool flagged);

// Flag-conditioned decode table: for each generator g, a map from the TRUE
// syndrome (read by a clean follow-up round — under a single fault, a fired
// flag spends the fault, so the follow-up is noiseless) to the unique
// single-fault data error consistent with "the flag of g fired".
//
// The candidate set per generator enumerates every circuit fault that can
// fire the flag: suffix hooks H_k (an ancilla X between comb positions),
// H_k times a one-qubit Pauli on order[k-1] (the 2-qubit depolarizing
// variants of the comb gate itself), and the identity (faults on the flag
// qubit alone). Construction verifies the table is unambiguous — two
// candidates sharing a syndrome must differ by a stabilizer — and, when the
// natural support order is ambiguous, deterministically searches permuted
// comb orders until an unambiguous one is found (the chosen order is what
// flag_extraction_circuit must be built with; read it back via order()).
class FlagDecodeTable {
 public:
  explicit FlagDecodeTable(const codes::StabilizerCode& code);

  [[nodiscard]] const codes::StabilizerCode& code() const { return code_; }
  [[nodiscard]] size_t num_generators() const { return orders_.size(); }

  // Comb order the table was built for (per generator).
  [[nodiscard]] const std::vector<uint32_t>& order(size_t g) const {
    return orders_[g];
  }

  // Correction for "flag of generator g fired; the follow-up round read
  // `syndrome`" (bits or packed, bit j for generator j). nullptr when no
  // single-fault candidate matches (more than one fault happened) —
  // callers fall back to the plain lookup decoder.
  [[nodiscard]] const pauli::PauliString* decode(size_t g,
                                                 uint64_t syndrome) const;
  [[nodiscard]] const pauli::PauliString* decode(
      size_t g, const gf2::BitVec& syndrome) const {
    return decode(g, syndrome.to_u64());
  }

  // Total table entries, summed over generators (structure tests).
  [[nodiscard]] size_t table_size() const;

 private:
  using Table = std::unordered_map<uint64_t, pauli::PauliString>;
  // Builds the table for one generator under one comb order; false on
  // ambiguity (two candidates share a syndrome but differ by a logical).
  [[nodiscard]] bool try_build(size_t g, const std::vector<uint32_t>& order,
                               Table* table) const;

  const codes::StabilizerCode& code_;
  std::vector<std::vector<uint32_t>> orders_;
  std::vector<Table> tables_;
};

// What a flag-recovery driver reads off its code, built once per driver
// and shared by the serial and batch engines (as ft::CatExtraction is for
// the cat-state drivers), so their tables, combs and qubit sets cannot
// drift. Register layout: data [0, n), ancilla n, flag n+1.
struct FlagExtraction {
  explicit FlagExtraction(const codes::StabilizerCode& code);

  const codes::StabilizerCode& code;
  FlagDecodeTable table;
  codes::LookupDecoder decoder;
  uint32_t ancilla = 0;
  uint32_t flag = 0;
  std::vector<uint32_t> data;           // [0, n): the fix gadget's qubits
  std::vector<uint32_t> noflag_qubits;  // data + ancilla
  std::vector<uint32_t> all_qubits;     // data + ancilla + flag
  // Per generator, built with the table's comb order.
  std::vector<sim::Circuit> flagged;
  std::vector<sim::Circuit> unflagged;
};

}  // namespace ftqc::universal
