#pragma once

#include <cstdint>
#include <vector>

#include "decode/spacetime.h"
#include "ft/noise_injector.h"
#include "sim/frame_sim.h"
#include "topo/toric_code.h"

namespace ftqc::decode {

// One noisy syndrome-extraction round of the toric code, announced location
// by location to `injector` (the same hook protocol every gadget driver
// uses). One ancilla per check; the four CNOTs run in the layers of the
// code's check-edge table (ToricCode::plaquette_edges / star_edges), each a
// perfect matching of data qubits onto ancillas, so a layer never touches a
// qubit twice. Plaquette side: prep |0>, CX(data -> ancilla) x4, measure Z —
// the ancilla's X frame accumulates the X-error parity of the four edges.
// Star side: prep |0>, H, CX(ancilla -> data) x4, H, measure Z — the Z-error
// parity rides the ancilla's Z frame through the Hadamard sandwich. Every
// data qubit also takes one storage location per round. `measured_flips`
// (size L²) receives each check's measurement flip; ancillas are qubits
// 2L².. 3L²-1 of `sim` and are reset at the start of each round's prep.
//
// One body over the concrete injector type, so no hook is a virtual call.
// dem.cpp instantiates it for the two injectors that run it, and only
// those link: StochasticInjector (run_circuit_memory) and
// FaultPointInjector (ToricDem::build).
template <class Injector>
void run_extraction_round(sim::FrameSim& sim, Injector& injector,
                          const topo::ToricCode& code, ToricSide side,
                          gf2::BitVec& measured_flips);

// Detector error model for the circuit above, built by exhaustive single-
// fault enumeration (the §3 discipline: replay every (location, variant)
// once and record which detectors fire). Detectors are the standard
// space-time events d_t = m_t XOR m_{t-1} (plus a final trusted round), so a
// data error fires a space-separated pair, a misread fires a time-separated
// pair, and mid-extraction CNOT faults fire the diagonal "hook" pairs that
// phenomenological q = p modelling never sees. Enumeration is windowed onto
// the middle of three rounds, giving the translation-invariant bulk counts.
//
// Counts are eps-independent: each (location, variant) contributes its
// variant_weight to the classes of the detector pairs it fires, so the edge
// probability at physical rate eps is count · eps / (#edges of that class in
// one bulk round). weights_at() turns those into the -log p integer weights
// SpacetimeToricDecoder consumes.
class ToricDem {
 public:
  struct Counts {
    double space = 0;  // same-round pairs, adjacent sites
    double time = 0;   // same-site pairs, consecutive rounds
    double diag = 0;   // hook pairs: one step in space AND time
    double far = 0;    // anything else (multi-step displacements)
    size_t locations = 0;  // fault opportunities in one bulk round
  };

  static ToricDem build(const topo::ToricCode& code, ToricSide side);
  // Bias-weighted build: each (location, variant) contributes its biased
  // conditional probability (ft::biased_variant_weight) instead of the
  // uniform variant weight. Since a variant's fired-detector set is bias-
  // independent, only the masses shift — a Z-heavy channel drains the
  // plaquette side's space class (few X components survive) and swells the
  // star side's, so weights_at() hands each side its own asymmetric space
  // weight. Reduces exactly to the uniform build when params.is_biased()
  // is false.
  static ToricDem build(const topo::ToricCode& code, ToricSide side,
                        const sim::NoiseParams& params);

  [[nodiscard]] const Counts& counts() const { return counts_; }
  [[nodiscard]] size_t sites() const { return sites_; }

  // Per-edge probabilities of the two decoder edge classes at physical fault
  // rate eps (diagonal hook mass contributes to both: a hook is one spatial
  // AND one temporal step of explanation).
  [[nodiscard]] double p_space(double eps) const;
  [[nodiscard]] double p_time(double eps) const;

  // Integer space/time weights w = max(1, round(-log p · scale)) for the
  // matching metric; only the w_space : w_time ratio matters to the decoder,
  // and scale = 16 keeps the quantization error of that ratio under ~1%.
  // `scale` must be finite and positive, and small enough that both scaled
  // weights round into a long long (checked).
  [[nodiscard]] SpacetimeOptions weights_at(double eps,
                                            double scale = 16.0) const;

 private:
  Counts counts_;
  size_t sites_ = 0;
};

// One shot of the circuit-level memory experiment: `rounds` noisy extraction
// rounds (every prep, CNOT, storage step, and readout faulting at rate eps
// through StochasticInjector) followed by a trusted readout of the residual
// frame, decoded by `decoder` — which should carry this circuit's DEM
// weights (ToricDem::weights_at) rather than the phenomenological defaults.
[[nodiscard]] PhenomenologicalResult run_circuit_memory(
    const SpacetimeToricDecoder& decoder, double eps, size_t rounds,
    uint64_t seed, PhenomenologicalScratch* scratch = nullptr);

// Generalized form: the injector runs the full NoiseParams channel set
// (biased axes, heralded erasure, separate storage rate...), so a biased
// memory point pairs a biased build() decoder with the matching biased
// noise. The eps overload above is exactly this with uniform_gate(eps, eps).
[[nodiscard]] PhenomenologicalResult run_circuit_memory(
    const SpacetimeToricDecoder& decoder, const sim::NoiseParams& params,
    size_t rounds, uint64_t seed, PhenomenologicalScratch* scratch = nullptr);

}  // namespace ftqc::decode
