#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "gf2/bitvec.h"
#include "pauli/pauli_string.h"
#include "sim/tableau_sim.h"

namespace ftqc::topo {

// Kitaev's Z2 spin model on an L×L torus (§7.2, Fig. 17): spins on the
// lattice links, commuting four-body check operators on sites (stars, X
// type — "Gauss's law") and plaquettes (Z type — "magnetic flux"). Violated
// stars host electric quasiparticles, violated plaquettes magnetic fluxons;
// the two logical qubits live in the homology of the torus.
//
// Edge layout: horizontal edge h(x,y) leaves vertex (x,y) in +x, vertical
// edge v(x,y) leaves it in +y; indices are 2(yL+x) and 2(yL+x)+1.
class ToricCode {
 public:
  explicit ToricCode(size_t lattice_size);

  [[nodiscard]] size_t lattice() const { return l_; }
  [[nodiscard]] size_t num_qubits() const { return 2 * l_ * l_; }
  [[nodiscard]] size_t num_plaquettes() const { return l_ * l_; }
  [[nodiscard]] size_t num_vertices() const { return l_ * l_; }

  [[nodiscard]] uint32_t h_edge(size_t x, size_t y) const;
  [[nodiscard]] uint32_t v_edge(size_t x, size_t y) const;

  // Each check's four edges, indexed by site y*L + x and listed in
  // syndrome-extraction layer order:
  //   plaquette (x,y): h(x,y), v(x,y), v(x+1,y), h(x,y+1);
  //   star (x,y):      h(x,y), v(x,y), v(x,y-1), h(x-1,y).
  // Built once by the constructor; the check operators, the syndromes and
  // the extraction circuit all read these tables.
  using CheckEdges = std::array<uint32_t, 4>;
  [[nodiscard]] const std::vector<CheckEdges>& plaquette_edges() const {
    return plaquette_edges_;
  }
  [[nodiscard]] const std::vector<CheckEdges>& star_edges() const {
    return star_edges_;
  }

  // Check operators as Pauli strings on the 2L² qubits.
  [[nodiscard]] pauli::PauliString star_operator(size_t x, size_t y) const;
  [[nodiscard]] pauli::PauliString plaquette_operator(size_t x, size_t y) const;
  // Homologically nontrivial Z loops (the logical Z's for the two encoded
  // qubits): a horizontal row of h-edges and a vertical column of v-edges.
  [[nodiscard]] pauli::PauliString logical_z1() const;
  [[nodiscard]] pauli::PauliString logical_z2() const;
  [[nodiscard]] pauli::PauliString logical_x1() const;
  [[nodiscard]] pauli::PauliString logical_x2() const;

  // Syndrome of an X-error pattern: bit p = 1 iff plaquette p is violated
  // (hosts a magnetic fluxon).
  [[nodiscard]] gf2::BitVec plaquette_syndrome(const gf2::BitVec& x_errors) const;
  // Syndrome of a Z-error pattern on the stars (electric charges).
  [[nodiscard]] gf2::BitVec star_syndrome(const gf2::BitVec& z_errors) const;
  // Allocation-free variants writing into a caller-owned buffer (resized to
  // L² if needed) — the inner loop of multi-round memory experiments.
  void plaquette_syndrome_into(const gf2::BitVec& x_errors,
                               gf2::BitVec& syndrome) const;
  void star_syndrome_into(const gf2::BitVec& z_errors,
                          gf2::BitVec& syndrome) const;

  // For a syndrome-free residual X pattern: which of the two logical qubits
  // suffered an X flip (odd overlap with the corresponding Z loop).
  [[nodiscard]] std::pair<bool, bool> logical_x_flips(
      const gf2::BitVec& residual_x) const;
  // Dual question for a residual Z pattern (odd overlap with the X loops).
  [[nodiscard]] std::pair<bool, bool> logical_z_flips(
      const gf2::BitVec& residual_z) const;

  // Geometry shared with the decode subsystem. Sites are plaquette or vertex
  // indices y*L + x; the metric is the L1 torus distance (both sublattices
  // share it by translation symmetry).
  [[nodiscard]] size_t torus_site_distance(size_t a, size_t b) const;
  // Endpoints of an edge in the two site graphs the decoders walk: the two
  // plaquettes the edge borders (dual graph) and the two vertices it joins
  // (primal graph). Erasure peeling and weighted path decoding need explicit
  // incidence, not just the distance metric.
  [[nodiscard]] std::pair<size_t, size_t> edge_plaquettes(size_t edge) const;
  [[nodiscard]] std::pair<size_t, size_t> edge_vertices(size_t edge) const;
  // Dual path between plaquettes, toggling crossed edges into `correction`.
  void toggle_dual_path(size_t from, size_t to, gf2::BitVec& correction) const;
  // Primal path between vertices, toggling crossed edges (Z-string support).
  void toggle_primal_path(size_t from, size_t to, gf2::BitVec& support) const;

  // Projects a tableau state onto the code space with all checks +1 (the
  // model's ground state).
  void prepare_ground_state(sim::TableauSim& sim) const;

 private:
  // Parity of each check's four edges in `errors`, one bit per site.
  void syndrome_into(const std::vector<CheckEdges>& checks,
                     const gf2::BitVec& errors, gf2::BitVec& syndrome) const;

  size_t l_;
  std::vector<CheckEdges> plaquette_edges_;
  std::vector<CheckEdges> star_edges_;
};

}  // namespace ftqc::topo
