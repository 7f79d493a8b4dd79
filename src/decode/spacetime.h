#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "decode/matching.h"
#include "gf2/bitvec.h"
#include "topo/toric_code.h"

namespace ftqc::decode {

// Which half of the toric code's CSS structure a decoder corrects: violated
// plaquettes (magnetic fluxons, X errors, dual-lattice geodesics) or violated
// stars (electric charges, Z errors, primal-lattice geodesics).
enum class ToricSide : uint8_t {
  kPlaquette,
  kStar,
};

struct SpacetimeOptions {
  // Relative integer edge weights of the 3D defect graph. Spatial steps
  // explain data errors, temporal steps explain syndrome-measurement errors;
  // weighting them ~ -log(p)/-log(q) biases the matching toward the likelier
  // explanation. Equal weights are right for the phenomenological p = q model.
  size_t space_weight = 1;
  size_t time_weight = 1;
};

// 3D space-time matching decoder for faulty syndrome measurement (Gottesman
// arXiv:2210.15844 §5; Paler & Devitt arXiv:1508.03695 §V): the syndrome is
// extracted every round but each extracted bit can itself be wrong, so a
// single snapshot is untrustworthy. Defects become syndrome *changes* between
// consecutive rounds — a data error flips a check from its round onward
// (two defects displaced in space), a measurement error flips one round only
// (two defects stacked in time) — and matching runs over (site, round) nodes
// with the torus metric in space plus |Δt| in time. Only the spatial
// projection of each matched pair becomes a data correction; time-like
// displacement is the "it was a misread" explanation and touches no qubit.
class SpacetimeToricDecoder {
 public:
  SpacetimeToricDecoder(const topo::ToricCode& code, ToricSide side,
                        std::shared_ptr<const MatchingStrategy> strategy,
                        SpacetimeOptions options = {});

  [[nodiscard]] const char* name() const { return strategy_->name(); }
  [[nodiscard]] const topo::ToricCode& code() const { return code_; }
  [[nodiscard]] ToricSide side() const { return side_; }

  // `syndromes` holds the T measured (possibly faulty) rounds followed by
  // one final trusted round — memory experiments append the true syndrome of
  // the accumulated error, which guarantees an even defect count and a
  // correction that clears the final syndrome exactly. T = 0 is the 2D
  // perfect-measurement decoder: decode({syndrome}) pairs one snapshot's
  // defects under the plain torus metric (times space_weight).
  [[nodiscard]] gf2::BitVec decode(
      const std::vector<gf2::BitVec>& syndromes) const;

  // Matching core over an already-extracted defect list: defect k lives at
  // site defect_site[k] in round defect_round[k]. This is the single decode
  // path shared by decode() and the batched front-end (decode/batch_decode.h)
  // — any front-end that lists defects in the canonical order (rounds
  // ascending, sites ascending within a round) gets bit-identical corrections
  // by construction.
  [[nodiscard]] gf2::BitVec decode_defects(
      const std::vector<uint32_t>& defect_site,
      const std::vector<uint32_t>& defect_round) const;

 private:
  const topo::ToricCode& code_;
  ToricSide side_;
  std::shared_ptr<const MatchingStrategy> strategy_;
  SpacetimeOptions options_;
};

// One shot of the phenomenological-noise memory experiment: per round, iid
// data errors at `data_error` accumulate on the qubits and the round's
// syndrome is read with each bit flipped at `meas_error`; after `rounds`
// noisy extractions a final perfect readout closes the history. Decodes with
// `decoder` and reports whether a logical operator was left behind.
struct PhenomenologicalResult {
  bool logical_fail = false;  // residual anticommutes with a logical
  bool cleared = false;       // residual syndrome empty (decoder invariant)
};

// Per-shot working buffers for run_phenomenological_memory. Passing the same
// instance across the shots of a sweep point reuses every BitVec allocation
// (errors, the rounds+1 syndrome snapshots, the scratch syndrome) instead of
// reallocating them per shot.
struct PhenomenologicalScratch {
  gf2::BitVec errors;
  std::vector<gf2::BitVec> syndromes;
  gf2::BitVec check;
};

[[nodiscard]] PhenomenologicalResult run_phenomenological_memory(
    const SpacetimeToricDecoder& decoder, double data_error, double meas_error,
    size_t rounds, uint64_t seed, PhenomenologicalScratch* scratch = nullptr);

}  // namespace ftqc::decode
