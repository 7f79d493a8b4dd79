#include "topo/toric_code.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"

namespace ftqc::topo {

using pauli::PauliString;

ToricCode::ToricCode(size_t lattice_size) : l_(lattice_size) {
  FTQC_CHECK(l_ >= 2, "torus needs L >= 2");
  plaquette_edges_.reserve(l_ * l_);
  star_edges_.reserve(l_ * l_);
  for (size_t y = 0; y < l_; ++y) {
    for (size_t x = 0; x < l_; ++x) {
      plaquette_edges_.push_back(
          {h_edge(x, y), v_edge(x, y), v_edge(x + 1, y), h_edge(x, y + 1)});
      star_edges_.push_back({h_edge(x, y), v_edge(x, y), v_edge(x, y + l_ - 1),
                             h_edge(x + l_ - 1, y)});
    }
  }
}

uint32_t ToricCode::h_edge(size_t x, size_t y) const {
  return static_cast<uint32_t>(2 * ((y % l_) * l_ + (x % l_)));
}

uint32_t ToricCode::v_edge(size_t x, size_t y) const {
  return static_cast<uint32_t>(2 * ((y % l_) * l_ + (x % l_)) + 1);
}

PauliString ToricCode::star_operator(size_t x, size_t y) const {
  PauliString p(num_qubits());
  for (const uint32_t e : star_edges_[(y % l_) * l_ + x % l_]) {
    p.set_pauli(e, 'X');
  }
  return p;
}

PauliString ToricCode::plaquette_operator(size_t x, size_t y) const {
  PauliString p(num_qubits());
  for (const uint32_t e : plaquette_edges_[(y % l_) * l_ + x % l_]) {
    p.set_pauli(e, 'Z');
  }
  return p;
}

PauliString ToricCode::logical_z1() const {
  PauliString p(num_qubits());
  for (size_t x = 0; x < l_; ++x) p.set_pauli(h_edge(x, 0), 'Z');
  return p;
}

PauliString ToricCode::logical_z2() const {
  PauliString p(num_qubits());
  for (size_t y = 0; y < l_; ++y) p.set_pauli(v_edge(0, y), 'Z');
  return p;
}

PauliString ToricCode::logical_x1() const {
  // Anticommutes with logical_z1 (crosses the h-row once): a vertical
  // column of h-edges on the dual lattice = X on h(x0, y) for all y.
  PauliString p(num_qubits());
  for (size_t y = 0; y < l_; ++y) p.set_pauli(h_edge(0, y), 'X');
  return p;
}

PauliString ToricCode::logical_x2() const {
  PauliString p(num_qubits());
  for (size_t x = 0; x < l_; ++x) p.set_pauli(v_edge(x, 0), 'X');
  return p;
}

gf2::BitVec ToricCode::plaquette_syndrome(const gf2::BitVec& x_errors) const {
  gf2::BitVec syndrome(num_plaquettes());
  plaquette_syndrome_into(x_errors, syndrome);
  return syndrome;
}

gf2::BitVec ToricCode::star_syndrome(const gf2::BitVec& z_errors) const {
  gf2::BitVec syndrome(num_vertices());
  star_syndrome_into(z_errors, syndrome);
  return syndrome;
}

void ToricCode::plaquette_syndrome_into(const gf2::BitVec& x_errors,
                                        gf2::BitVec& syndrome) const {
  syndrome_into(plaquette_edges_, x_errors, syndrome);
}

void ToricCode::star_syndrome_into(const gf2::BitVec& z_errors,
                                   gf2::BitVec& syndrome) const {
  syndrome_into(star_edges_, z_errors, syndrome);
}

void ToricCode::syndrome_into(const std::vector<CheckEdges>& checks,
                              const gf2::BitVec& errors,
                              gf2::BitVec& syndrome) const {
  FTQC_CHECK(errors.size() == num_qubits(), "error pattern size mismatch");
  if (syndrome.size() != checks.size()) syndrome.resize(checks.size());
  for (size_t s = 0; s < checks.size(); ++s) {
    const CheckEdges& e = checks[s];
    syndrome.set(s, errors.get(e[0]) ^ errors.get(e[1]) ^ errors.get(e[2]) ^
                        errors.get(e[3]));
  }
}

std::pair<bool, bool> ToricCode::logical_x_flips(
    const gf2::BitVec& residual_x) const {
  bool flip1 = false, flip2 = false;
  for (size_t x = 0; x < l_; ++x) flip1 ^= residual_x.get(h_edge(x, 0));
  for (size_t y = 0; y < l_; ++y) flip2 ^= residual_x.get(v_edge(0, y));
  return {flip1, flip2};
}

std::pair<bool, bool> ToricCode::logical_z_flips(
    const gf2::BitVec& residual_z) const {
  // A residual Z flips logical qubit i when it overlaps the corresponding
  // X loop (logical_x1 = h-column, logical_x2 = v-row) an odd number of
  // times.
  bool flip1 = false, flip2 = false;
  for (size_t y = 0; y < l_; ++y) flip1 ^= residual_z.get(h_edge(0, y));
  for (size_t x = 0; x < l_; ++x) flip2 ^= residual_z.get(v_edge(x, 0));
  return {flip1, flip2};
}

size_t ToricCode::torus_site_distance(size_t a, size_t b) const {
  const size_t ax = a % l_, ay = a / l_;
  const size_t bx = b % l_, by = b / l_;
  const size_t dx = std::min((bx + l_ - ax) % l_, (ax + l_ - bx) % l_);
  const size_t dy = std::min((by + l_ - ay) % l_, (ay + l_ - by) % l_);
  return dx + dy;
}

std::pair<size_t, size_t> ToricCode::edge_plaquettes(size_t edge) const {
  FTQC_CHECK(edge < num_qubits(), "edge index out of range");
  const size_t idx = edge / 2;
  const size_t x = idx % l_, y = idx / l_;
  if ((edge & 1) == 0) {
    // h(x,y) is the north edge of p(x,y) and the south edge of p(x,y-1).
    return {y * l_ + x, ((y + l_ - 1) % l_) * l_ + x};
  }
  // v(x,y) is the west edge of p(x,y) and the east edge of p(x-1,y).
  return {y * l_ + x, y * l_ + (x + l_ - 1) % l_};
}

std::pair<size_t, size_t> ToricCode::edge_vertices(size_t edge) const {
  FTQC_CHECK(edge < num_qubits(), "edge index out of range");
  const size_t idx = edge / 2;
  const size_t x = idx % l_, y = idx / l_;
  if ((edge & 1) == 0) {
    // h(x,y) leaves vertex (x,y) in +x.
    return {y * l_ + x, y * l_ + (x + 1) % l_};
  }
  return {y * l_ + x, ((y + 1) % l_) * l_ + x};
}

void ToricCode::toggle_dual_path(size_t from, size_t to,
                                 gf2::BitVec& correction) const {
  // Walk on plaquettes: x then y, along the shorter way around the torus.
  size_t x = from % l_, y = from / l_;
  const size_t tx = to % l_, ty = to / l_;
  const auto step_count = [this](size_t a, size_t b, bool* forward) {
    const size_t fwd = (b + l_ - a) % l_;
    const size_t back = (a + l_ - b) % l_;
    *forward = fwd <= back;
    return std::min(fwd, back);
  };
  bool forward = true;
  size_t steps = step_count(x, tx, &forward);
  for (size_t s = 0; s < steps; ++s) {
    if (forward) {
      // (x,y) -> (x+1,y): crossing the shared edge v(x+1, y).
      correction.flip(v_edge(x + 1, y));
      x = (x + 1) % l_;
    } else {
      correction.flip(v_edge(x, y));
      x = (x + l_ - 1) % l_;
    }
  }
  steps = step_count(y, ty, &forward);
  for (size_t s = 0; s < steps; ++s) {
    if (forward) {
      // (x,y) -> (x,y+1): crossing h(x, y+1).
      correction.flip(h_edge(x, y + 1));
      y = (y + 1) % l_;
    } else {
      correction.flip(h_edge(x, y));
      y = (y + l_ - 1) % l_;
    }
  }
}

void ToricCode::toggle_primal_path(size_t from, size_t to,
                                   gf2::BitVec& support) const {
  size_t x = from % l_, y = from / l_;
  const size_t tx = to % l_, ty = to / l_;
  const auto step_count = [this](size_t a, size_t b, bool* forward) {
    const size_t fwd = (b + l_ - a) % l_;
    const size_t back = (a + l_ - b) % l_;
    *forward = fwd <= back;
    return std::min(fwd, back);
  };
  bool forward = true;
  size_t steps = step_count(x, tx, &forward);
  for (size_t s = 0; s < steps; ++s) {
    if (forward) {
      support.flip(h_edge(x, y));  // (x,y) -> (x+1,y) along h(x,y)
      x = (x + 1) % l_;
    } else {
      support.flip(h_edge(x + l_ - 1, y));
      x = (x + l_ - 1) % l_;
    }
  }
  steps = step_count(y, ty, &forward);
  for (size_t s = 0; s < steps; ++s) {
    if (forward) {
      support.flip(v_edge(x, y));
      y = (y + 1) % l_;
    } else {
      support.flip(v_edge(x, y + l_ - 1));
      y = (y + l_ - 1) % l_;
    }
  }
}

void ToricCode::prepare_ground_state(sim::TableauSim& sim) const {
  FTQC_CHECK(sim.num_qubits() >= num_qubits(), "simulator too small");
  // |0...0> already satisfies every plaquette; measure the stars and pair up
  // the -1 outcomes with Z strings (which commute with all plaquettes).
  std::vector<size_t> bad;
  for (size_t y = 0; y < l_; ++y) {
    for (size_t x = 0; x < l_; ++x) {
      if (sim.measure_pauli(star_operator(x, y))) bad.push_back(y * l_ + x);
    }
  }
  FTQC_CHECK(bad.size() % 2 == 0, "electric charges come in pairs");
  for (size_t i = 0; i + 1 < bad.size(); i += 2) {
    gf2::BitVec support(num_qubits());
    toggle_primal_path(bad[i], bad[i + 1], support);
    for (size_t e = 0; e < num_qubits(); ++e) {
      if (support.get(e)) sim.apply_z(e);
    }
  }
}

}  // namespace ftqc::topo
