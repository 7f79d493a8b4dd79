#include "universal/flag_extraction.h"

#include <algorithm>

#include "common/check.h"
#include "ft/generic_recovery.h"

namespace ftqc::universal {

using pauli::PauliString;

sim::Circuit flag_extraction_circuit(const PauliString& generator,
                                     std::span<const uint32_t> order,
                                     uint32_t ancilla, uint32_t flag,
                                     bool flagged) {
  const size_t w = order.size();
  FTQC_CHECK(w == generator.weight(), "comb order must cover the support");
  FTQC_CHECK(w >= 3, "flag extraction needs weight >= 3 generators (below "
                     "that a hook is already weight <= 1)");
  for (const uint32_t q : order) {
    FTQC_CHECK(generator.pauli_at(q) != 'I', "comb qubit outside support");
  }

  sim::Circuit circuit;
  circuit.ensure_qubits(std::max(ancilla, flag) + 1);
  circuit.r(ancilla);
  circuit.h(ancilla);
  if (flagged) circuit.r(flag);
  circuit.tick();
  for (size_t i = 0; i < w; ++i) {
    ft::append_controlled_pauli(circuit, ancilla, order[i],
                                generator.pauli_at(order[i]));
    circuit.tick();
    // The two flag couplings bracket comb positions 1..w-2: an ancilla X
    // fault in between fires the flag, while faults outside the bracket
    // spread to at most one data qubit and stay invisible on purpose.
    if (flagged && (i == 0 || i == w - 2)) {
      circuit.cx(ancilla, flag);
      circuit.tick();
    }
  }
  circuit.mx(ancilla);
  if (flagged) circuit.m(flag);
  circuit.tick();
  return circuit;
}

namespace {

// The generator's Paulis restricted to the comb suffix order[k..w-1]: the
// data error left by an ancilla X entering the comb at position k.
PauliString suffix_hook(const PauliString& generator,
                        const std::vector<uint32_t>& order, size_t k) {
  PauliString hook(generator.num_qubits());
  for (size_t i = k; i < order.size(); ++i) {
    hook.set_pauli(order[i], generator.pauli_at(order[i]));
  }
  return hook;
}

// splitmix64: deterministic stream for the comb-order permutation search.
uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

FlagDecodeTable::FlagDecodeTable(const codes::StabilizerCode& code)
    : code_(code) {
  FTQC_CHECK(code.num_generators() <= 64,
             "flag table keys pack the syndrome into one word");
  orders_.resize(code.num_generators());
  tables_.resize(code.num_generators());
  for (size_t g = 0; g < code.num_generators(); ++g) {
    const PauliString& generator = code.generators()[g];
    std::vector<uint32_t> order;
    for (size_t q = 0; q < code.n(); ++q) {
      if (generator.pauli_at(q) != 'I') {
        order.push_back(static_cast<uint32_t>(q));
      }
    }
    // Natural support order first; on ambiguity, deterministically permute
    // the comb until the candidate syndromes separate. Every order tried is
    // a valid circuit — the search only changes WHICH hooks are possible.
    bool built = false;
    for (int attempt = 0; attempt < 200 && !built; ++attempt) {
      if (attempt > 0) {
        // Fisher-Yates driven by splitmix64 on (generator, attempt).
        for (size_t i = order.size() - 1; i > 0; --i) {
          const uint64_t r = mix64(mix64(g * 1000003 + attempt) + i);
          std::swap(order[i], order[r % (i + 1)]);
        }
      }
      Table table;
      if (try_build(g, order, &table)) {
        orders_[g] = order;
        tables_[g] = std::move(table);
        built = true;
      }
    }
    FTQC_CHECK(built, "no unambiguous comb order found for generator");
  }
}

bool FlagDecodeTable::try_build(size_t g, const std::vector<uint32_t>& order,
                                Table* table) const {
  const PauliString& generator = code_.generators()[g];
  const size_t w = order.size();
  // Every data error a flag-firing single fault can leave behind:
  //  * identity — the fault hit the flag qubit alone (prep, measurement, or
  //    the flag side of a coupling CX);
  //  * suffix hooks H_k, k = 0..w-1 — an ancilla X between comb positions
  //    (k = 0, before the first coupling, is the full generator and so is
  //    trivially a stabilizer; it is kept for completeness);
  //  * H_k times a one-qubit Pauli on order[k-1] — the two-qubit
  //    depolarizing variants of comb gate k itself (ancilla X component
  //    plus X/Y/Z on the gate's data target).
  std::vector<PauliString> candidates;
  candidates.emplace_back(code_.n());
  for (size_t k = 0; k < w; ++k) {
    candidates.push_back(suffix_hook(generator, order, k));
  }
  for (size_t k = 1; k < w; ++k) {
    for (const char pauli : {'X', 'Y', 'Z'}) {
      PauliString e = suffix_hook(generator, order, k);
      e = e * PauliString::single(code_.n(), order[k - 1], pauli);
      candidates.push_back(std::move(e));
    }
  }

  table->clear();
  for (const PauliString& candidate : candidates) {
    const uint64_t key = code_.syndrome(candidate).to_u64();
    const auto it = table->find(key);
    if (it == table->end()) {
      table->emplace(key, candidate);
      continue;
    }
    // Same syndrome: sound only if the two candidates act identically on
    // the code space (their product is a stabilizer). Otherwise correcting
    // one when the other happened would be a logical error — reject this
    // comb order and let the constructor permute.
    if (!code_.in_stabilizer_group(it->second * candidate)) return false;
    if (candidate.weight() < it->second.weight()) it->second = candidate;
  }
  return true;
}

const PauliString* FlagDecodeTable::decode(size_t g, uint64_t syndrome) const {
  FTQC_CHECK(g < tables_.size(), "generator index out of range");
  const auto it = tables_[g].find(syndrome);
  return it == tables_[g].end() ? nullptr : &it->second;
}

size_t FlagDecodeTable::table_size() const {
  size_t total = 0;
  for (const Table& t : tables_) total += t.size();
  return total;
}

FlagExtraction::FlagExtraction(const codes::StabilizerCode& code)
    : code(code),
      table(code),
      decoder(code),
      ancilla(static_cast<uint32_t>(code.n())),
      flag(static_cast<uint32_t>(code.n()) + 1) {
  for (uint32_t q = 0; q < ancilla; ++q) data.push_back(q);
  noflag_qubits = data;
  noflag_qubits.push_back(ancilla);
  all_qubits = noflag_qubits;
  all_qubits.push_back(flag);
  for (size_t g = 0; g < code.num_generators(); ++g) {
    const auto& order = table.order(g);
    flagged.push_back(flag_extraction_circuit(code.generators()[g], order,
                                              ancilla, flag, /*flagged=*/true));
    unflagged.push_back(flag_extraction_circuit(
        code.generators()[g], order, ancilla, flag, /*flagged=*/false));
  }
}

}  // namespace ftqc::universal
