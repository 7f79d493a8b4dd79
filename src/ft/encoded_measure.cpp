#include "ft/encoded_measure.h"

#include "codes/library.h"
#include "codes/lookup_decoder.h"
#include "common/check.h"
#include "gf2/hamming.h"
#include "pauli/pauli_string.h"

namespace ftqc::ft {

using pauli::PauliString;

bool destructive_logical_measure(sim::TableauSim& sim,
                                 std::span<const uint32_t> block) {
  FTQC_CHECK(block.size() == 7, "Steane block expected");
  gf2::BitVec word(7);
  for (size_t i = 0; i < 7; ++i) word.set(i, sim.measure_z(block[i]));
  return gf2::hamming743().decode_logical(word);
}

bool nondestructive_logical_measure(sim::TableauSim& sim,
                                    std::span<const uint32_t> block,
                                    uint32_t ancilla, int repetitions) {
  FTQC_CHECK(block.size() == 7, "Steane block expected");
  int ones = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    sim.reset(ancilla);
    // Copy the parity through the weight-3 logical-Z support {0,1,2}.
    sim.apply_cx(block[0], ancilla);
    sim.apply_cx(block[1], ancilla);
    sim.apply_cx(block[2], ancilla);
    ones += sim.measure_z(ancilla) ? 1 : 0;
  }
  return 2 * ones > repetitions;
}

void project_to_logical_zero(sim::TableauSim& sim,
                             std::span<const uint32_t> block,
                             uint32_t ancilla) {
  FTQC_CHECK(block.size() == 7, "Steane block expected");
  const auto& code = codes::steane();
  // Fault-tolerant error correction projects any input onto the code space
  // (§3.5). At the tableau level we realize the projection by measuring the
  // stabilizer generators and applying the lookup correction.
  gf2::BitVec syndrome(code.num_generators());
  for (size_t g = 0; g < code.num_generators(); ++g) {
    PauliString gen(sim.num_qubits());
    for (size_t q = 0; q < 7; ++q) {
      gen.set_pauli(block[q], code.generators()[g].pauli_at(q));
    }
    syndrome.set(g, sim.measure_pauli(gen));
  }
  static const codes::LookupDecoder decoder(codes::steane());
  const PauliString correction = decoder.decode(syndrome);
  for (size_t q = 0; q < 7; ++q) {
    const char p = correction.pauli_at(q);
    if (p == 'X') sim.apply_x(block[q]);
    if (p == 'Y') sim.apply_y(block[q]);
    if (p == 'Z') sim.apply_z(block[q]);
  }
  // Measure the logical qubit; flip the block on outcome 1.
  if (nondestructive_logical_measure(sim, block, ancilla)) {
    for (uint32_t q : block) sim.apply_x(q);
  }
}

}  // namespace ftqc::ft
