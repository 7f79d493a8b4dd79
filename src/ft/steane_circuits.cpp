#include "ft/steane_circuits.h"

#include <algorithm>

#include "common/check.h"
#include "gf2/hamming.h"
#include "gf2/linalg.h"

namespace ftqc::ft {

using gf2::BitMat;
using gf2::BitVec;
using sim::Circuit;

namespace {

// Row-reduces `hx` so every row owns a pivot column outside `avoid`;
// returns the reduced rows. Each reduced row still spans the same space
// (they are the X-stabilizer supports used as superposition generators).
std::vector<BitVec> pivoted_rows(const BitMat& hx,
                                 std::span<const uint32_t> avoid,
                                 std::vector<size_t>* pivots_out) {
  std::vector<BitVec> rows;
  for (size_t r = 0; r < hx.rows(); ++r) rows.push_back(hx.row(r));
  std::vector<bool> avoided(hx.cols(), false);
  for (uint32_t a : avoid) avoided[a] = true;

  std::vector<size_t> pivots;
  size_t next_row = 0;
  for (size_t col = 0; col < hx.cols() && next_row < rows.size(); ++col) {
    if (avoided[col]) continue;
    size_t found = rows.size();
    for (size_t r = next_row; r < rows.size(); ++r) {
      if (rows[r].get(col)) {
        found = r;
        break;
      }
    }
    if (found == rows.size()) continue;
    std::swap(rows[next_row], rows[found]);
    for (size_t r = 0; r < rows.size(); ++r) {
      if (r != next_row && rows[r].get(col)) rows[r] ^= rows[next_row];
    }
    pivots.push_back(col);
    ++next_row;
  }
  FTQC_CHECK(next_row == rows.size(),
             "hx rows not independent outside the avoided columns");
  if (pivots_out != nullptr) *pivots_out = pivots;
  return rows;
}

// Greedy ASAP layering: each XOR lands in the earliest layer where both its
// qubits are free, honoring the §6 "maximal parallelism" assumption. Layers
// are emitted with TICK separators.
void emit_layered_cnots(Circuit& c,
                        const std::vector<std::pair<uint32_t, uint32_t>>& cnots) {
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> layers;
  std::vector<size_t> busy_until;  // per qubit: first free layer index
  const auto free_layer = [&busy_until](uint32_t q) {
    return q < busy_until.size() ? busy_until[q] : 0;
  };
  for (const auto& [a, b] : cnots) {
    const size_t layer = std::max(free_layer(a), free_layer(b));
    if (layer >= layers.size()) layers.resize(layer + 1);
    layers[layer].push_back({a, b});
    const uint32_t hi = std::max(a, b);
    if (hi >= busy_until.size()) busy_until.resize(hi + 1, 0);
    busy_until[a] = layer + 1;
    busy_until[b] = layer + 1;
  }
  for (const auto& layer : layers) {
    for (const auto& [a, b] : layer) c.cx(a, b);
    c.tick();
  }
}

}  // namespace

Circuit css_zero_prep(const BitMat& hx, std::span<const uint32_t> qubits,
                      std::span<const uint32_t> avoid) {
  FTQC_CHECK(qubits.size() == hx.cols(), "qubit count must match block length");
  std::vector<size_t> pivots;
  const auto rows = pivoted_rows(hx, avoid, &pivots);

  Circuit c;
  for (uint32_t q : qubits) c.r(q);
  c.tick();
  for (size_t r = 0; r < rows.size(); ++r) c.h(qubits[pivots[r]]);
  c.tick();
  std::vector<std::pair<uint32_t, uint32_t>> cnots;
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t col = 0; col < hx.cols(); ++col) {
      if (col != pivots[r] && rows[r].get(col)) {
        cnots.push_back({qubits[pivots[r]], qubits[col]});
      }
    }
  }
  emit_layered_cnots(c, cnots);
  return c;
}

Circuit steane_encoder(std::span<const uint32_t> qubits) {
  FTQC_CHECK(qubits.size() == 7, "Steane encoder needs seven qubits");
  // Logical-X support {0,1,2}: 1110000 is an odd-weight Hamming codeword in
  // the Eq. (1) convention, so the two fan-out XORs prepare
  // a|0000000> + b|1110000>.
  Circuit c;
  for (size_t q = 1; q < 7; ++q) c.r(qubits[q]);
  c.tick();
  c.cx(qubits[0], qubits[1]);
  c.tick();
  c.cx(qubits[0], qubits[2]);
  c.tick();
  // Superpose the even subcode on top, pivoting away from {0,1,2}.
  const uint32_t avoid[3] = {0, 1, 2};
  std::vector<size_t> pivots;
  const auto rows =
      pivoted_rows(gf2::hamming743().check_matrix(), avoid, &pivots);
  for (size_t r = 0; r < rows.size(); ++r) c.h(qubits[pivots[r]]);
  c.tick();
  std::vector<std::pair<uint32_t, uint32_t>> cnots;
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t col = 0; col < 7; ++col) {
      if (col != pivots[r] && rows[r].get(col)) {
        cnots.push_back({qubits[pivots[r]], qubits[col]});
      }
    }
  }
  emit_layered_cnots(c, cnots);
  return c;
}

Circuit steane_zero_prep(std::span<const uint32_t> qubits) {
  FTQC_CHECK(qubits.size() == 7, "Steane prep needs seven qubits");
  return css_zero_prep(gf2::hamming743().check_matrix(), qubits);
}

Circuit steane_plus_prep(std::span<const uint32_t> qubits) {
  Circuit c = steane_zero_prep(qubits);
  for (uint32_t q : qubits) c.h(q);
  c.tick();
  return c;
}

Circuit nonft_bitflip_syndrome(std::span<const uint32_t> data, uint32_t ancilla) {
  FTQC_CHECK(data.size() == 7, "Steane block has seven qubits");
  const gf2::BitMat& h = gf2::hamming743().check_matrix();
  Circuit c;
  for (size_t row = 0; row < 3; ++row) {
    c.r(ancilla);
    c.tick();
    for (size_t col = 0; col < 7; ++col) {
      if (h.get(row, col)) {
        c.cx(data[col], ancilla);  // one shared target: the Fig. 6 mistake
        c.tick();
      }
    }
    c.m(ancilla);
    c.tick();
  }
  return c;
}

Circuit shor_syndrome_bit(std::span<const uint32_t> data,
                          std::span<const uint32_t> ancilla,
                          const BitVec& support, bool x_type) {
  FTQC_CHECK(support.popcount() == ancilla.size(),
             "need one Shor-state bit per supported data qubit");
  Circuit c;
  size_t a = 0;
  for (size_t col = 0; col < support.size(); ++col) {
    if (!support.get(col)) continue;
    if (x_type) {
      // Cat-state ancilla as the XOR source (Fig. 7c): X-type eigenvalue.
      c.cx(ancilla[a], data[col]);
    } else {
      // Data as the source, Shor-state bits as targets (§3.2).
      c.cx(data[col], ancilla[a]);
    }
    c.tick();
    ++a;
  }
  if (x_type) {
    // Read the cat in the X basis.
    for (uint32_t q : ancilla) c.mx(q);
  } else {
    for (uint32_t q : ancilla) c.m(q);
  }
  c.tick();
  return c;
}

Circuit cat_prep_with_check(std::span<const uint32_t> cat, uint32_t check,
                            bool final_hadamards) {
  FTQC_CHECK(cat.size() >= 2, "cat state needs at least two qubits");
  Circuit c;
  for (uint32_t q : cat) c.r(q);
  c.r(check);
  c.tick();
  c.h(cat[0]);
  c.tick();
  for (size_t i = 0; i + 1 < cat.size(); ++i) {
    c.cx(cat[i], cat[i + 1]);
    c.tick();
  }
  // Verification: the troublesome single faults in the XOR chain leave the
  // first and last cat bits unequal (§3.3), so compare exactly those two.
  c.cx(cat.front(), check);
  c.tick();
  c.cx(cat.back(), check);
  c.tick();
  c.m(check);
  c.tick();
  if (final_hadamards) {
    for (uint32_t q : cat) c.h(q);
    c.tick();
  }
  return c;
}

Circuit transversal_cx(std::span<const uint32_t> source,
                       std::span<const uint32_t> target) {
  FTQC_CHECK(source.size() == target.size(), "block size mismatch");
  Circuit c;
  for (size_t i = 0; i < source.size(); ++i) c.cx(source[i], target[i]);
  c.tick();
  return c;
}

Circuit steane_syndrome_gadget(bool phase_type, std::span<const uint32_t> data,
                               std::span<const uint32_t> ancilla) {
  FTQC_CHECK(data.size() == 7 && ancilla.size() == 7,
             "Steane blocks have seven qubits");
  Circuit c;
  if (phase_type) {
    // Phase syndrome: |0>_code ancilla as XOR source, data as target; data Z
    // errors propagate backward onto the ancilla; read it in the X basis.
    for (size_t i = 0; i < 7; ++i) c.cx(ancilla[i], data[i]);
    c.tick();
    for (uint32_t q : ancilla) c.mx(q);
    c.tick();
  } else {
    // Bit-flip syndrome: rotate the verified |0>_code into the Steane state
    // (Eq. 17), XOR the data in, and measure in the Z basis.
    for (uint32_t q : ancilla) c.h(q);
    c.tick();
    for (size_t i = 0; i < 7; ++i) c.cx(data[i], ancilla[i]);
    c.tick();
    for (uint32_t q : ancilla) c.m(q);
    c.tick();
  }
  return c;
}

Circuit nondestructive_parity(std::span<const uint32_t> data, uint32_t ancilla) {
  FTQC_CHECK(data.size() == 7, "Steane block has seven qubits");
  Circuit c;
  c.r(ancilla);
  c.tick();
  // Z-logical support {0,1,2} (odd codeword 1110000 in the Eq. (1) basis).
  for (size_t q : {size_t{0}, size_t{1}, size_t{2}}) {
    c.cx(data[q], ancilla);
    c.tick();
  }
  c.m(ancilla);
  c.tick();
  return c;
}

Circuit destructive_measure(std::span<const uint32_t> data) {
  Circuit c;
  for (uint32_t q : data) c.m(q);
  c.tick();
  return c;
}

Circuit leak_detection(uint32_t data, uint32_t ancilla) {
  // Two data-controlled XORs bracketing a NOT on the data qubit: a healthy
  // qubit drives the ancilla to |1> regardless of its value, while a leaked
  // qubit leaves both XORs inert and the ancilla reads |0>.
  Circuit c;
  c.r(ancilla);
  c.tick();
  c.cx(data, ancilla);
  c.tick();
  c.x(data);
  c.tick();
  c.cx(data, ancilla);
  c.tick();
  c.x(data);
  c.tick();
  c.m(ancilla);
  c.tick();
  return c;
}

}  // namespace ftqc::ft
