#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "decode/spacetime.h"
#include "sim/noise_model.h"

namespace ftqc::decode {

struct ErasureOptions {
  // Matching-metric cost of crossing an unheralded edge (~ -log p at the
  // decoder's integer scale; only the normal : erased ratio matters).
  size_t normal_weight = 16;
  // Cost of crossing a heralded edge. An erased qubit carries this side's
  // error with probability 1/2 — nearly free — so paths are steered through
  // the erasure support whenever one exists.
  size_t erased_weight = 1;
};

// Erasure-aware matching decoder for one perfect-measurement syndrome
// snapshot (code capacity). Two stages:
//
//  1. Peeling fast path (Delfosse & Zémor, arXiv:1703.01517): build a
//     spanning forest of the heralded subgraph and peel it leaf-first,
//     toggling a leaf edge whenever its pendant site holds a defect. Pure
//     erasure noise is fully corrected here — up to the bond-percolation
//     threshold of 0.5 — because every erasure cluster then carries even
//     defect parity. Odd-parity clusters (mixed Pauli + erasure) sweep
//     their one surplus defect to the cluster root for stage 2.
//  2. Weighted matching on whatever defects remain: pairwise distances are
//     Dijkstra shortest paths over the site graph with heralded edges
//     discounted to `erased_weight`, and each matched pair is corrected
//     along its reconstructed shortest path (which may thread through the
//     erasure support — toggle_*_path geodesics cannot).
//
// Passing an empty herald vector degrades to herald-blind decoding: no
// peeling, uniform edge weights, i.e. ordinary geodesic matching through the
// same code path. The blind-vs-aware threshold gap (bench E20) is measured
// decoder-for-decoder this way.
class ErasureAwareDecoder {
 public:
  ErasureAwareDecoder(const topo::ToricCode& code, ToricSide side,
                      std::shared_ptr<const MatchingStrategy> strategy,
                      ErasureOptions options = {});

  [[nodiscard]] const char* name() const { return strategy_->name(); }
  [[nodiscard]] const topo::ToricCode& code() const { return code_; }
  [[nodiscard]] ToricSide side() const { return side_; }

  // `syndrome` has one bit per site of this side; `heralds` one bit per data
  // qubit (1 = erased), or empty for herald-blind decoding. Deterministic:
  // consumes no randomness, so blind and aware corrections of the same shot
  // are directly comparable.
  [[nodiscard]] gf2::BitVec decode(const gf2::BitVec& syndrome,
                                   const gf2::BitVec& heralds) const;

 private:
  struct Incidence {
    uint32_t edge;
    uint32_t site;  // the far endpoint
  };

  void peel(gf2::BitVec& defects, const gf2::BitVec& heralds,
            gf2::BitVec& correction) const;

  const topo::ToricCode& code_;
  ToricSide side_;
  std::shared_ptr<const MatchingStrategy> strategy_;
  ErasureOptions options_;
  size_t sites_;
  // Four incident (edge, far-site) pairs per site, from edge_plaquettes /
  // edge_vertices depending on side. L = 2 produces parallel edges, which
  // both BFS and Dijkstra tolerate.
  std::vector<std::vector<Incidence>> adjacency_;
};

// One code-capacity shot of the heralded-erasure memory experiment: every
// data qubit takes one biased Pauli channel at rate `params.eps_store`
// (split by the bias fractions) and one heralded erasure at `params.p_erase`
// through a FrameSim, the side's syndrome is read perfectly, and the SAME
// snapshot is decoded twice — heralds withheld, then heralds supplied. The
// paired verdicts isolate the value of the herald bit shot-for-shot.
struct ErasureMemoryResult {
  bool blind_fail = false;
  bool aware_fail = false;
  bool blind_cleared = false;   // decoder invariant: residual syndrome empty
  bool aware_cleared = false;
  size_t num_heralds = 0;       // erased data qubits this shot
};

[[nodiscard]] ErasureMemoryResult run_erasure_memory(
    const ErasureAwareDecoder& decoder, const sim::NoiseParams& params,
    uint64_t seed);

}  // namespace ftqc::decode
