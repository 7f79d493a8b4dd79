#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/frame_sim.h"
#include "sim/noise_model.h"

namespace ftqc::ft {

// Where a fault can strike during a fault-tolerant gadget. The recovery
// drivers announce every opportunity to an injector; the injector decides
// whether (and which) Pauli lands. Two implementations:
//  * StochasticInjector — samples the §6 error model (Monte Carlo runs);
//  * FaultPointInjector — deterministically injects chosen faults at chosen
//    locations (the exhaustive O(ε)/O(ε²) analysis of §3: "consider
//    systematically all the possible ways that recovery might fail").
enum class LocationKind : uint8_t {
  kGate1,    // after a 1-qubit gate: X, Y or Z (3 variants)
  kGate2,    // after a 2-qubit gate: 15 two-qubit Pauli variants
  kPrep,     // faulty |0> preparation: X (1 variant)
  kMeas,     // measurement flip (1 variant)
  kStorage,  // resting qubit, per time step: X, Y or Z (3 variants)
};

[[nodiscard]] constexpr int location_variants(LocationKind kind) {
  switch (kind) {
    case LocationKind::kGate1: return 3;
    case LocationKind::kGate2: return 15;
    case LocationKind::kPrep: return 1;
    case LocationKind::kMeas: return 1;
    case LocationKind::kStorage: return 3;
  }
  return 0;
}

// Probability weight of one variant, conditioned on the location faulting
// (variants of a location are equiprobable under the §6 model).
[[nodiscard]] constexpr double variant_weight(LocationKind kind) {
  return 1.0 / location_variants(kind);
}

// Conditional variant weight under a biased Pauli channel with axis
// fractions (fx, fy, fz): kGate1/kStorage variants 0..2 weigh fx/fy/fz,
// kGate2 variants follow the per-qubit (1, 3fx, 3fy, 3fz)/4 product
// conditioned on not-II (exactly StochasticInjector's sampling law), and
// prep/meas flips are bias-blind. Reduces to variant_weight(kind) at
// fx = fy = fz = 1/3. Weighted DEM builds (ToricDem) use this to turn a
// bias into asymmetric decoder edge probabilities.
[[nodiscard]] double biased_variant_weight(LocationKind kind, int variant,
                                           double fx, double fy, double fz);

// Shared variant semantics: every injector that realizes enumerated faults
// (FaultPointInjector replays, the Bernoulli proposal injector behind the
// rare-event sampler) applies variants through these, so "variant v at a
// kind-K location" names the same physical error everywhere.
//
// 1-qubit fault (kGate1/kStorage): variant 0..2 = X, Y, Z.
void inject_pauli1_fault(sim::FrameSim& sim, uint32_t q, int variant);
// 2-qubit fault (kGate2): variant 0..14; variant+1 encodes (code_a, code_b)
// in base 4 with 1=X, 2=Z, 3=Y per qubit (00 excluded — that is "no fault").
void inject_pauli2_fault(sim::FrameSim& sim, uint32_t a, uint32_t b,
                         int variant);
// Faulty |0> preparation flips the prepared qubit.
void inject_prep_fault(sim::FrameSim& sim, uint32_t q);
// Faulty measurement is a basis-appropriate flip of the outcome.
void inject_meas_fault(sim::FrameSim& sim, uint32_t q, bool x_basis);

class NoiseInjector {
 public:
  virtual ~NoiseInjector() = default;
  virtual void on_gate1(sim::FrameSim& sim, uint32_t q) = 0;
  virtual void on_gate2(sim::FrameSim& sim, uint32_t a, uint32_t b) = 0;
  virtual void on_prep(sim::FrameSim& sim, uint32_t q) = 0;
  // Called just before a measurement; a faulty measurement is modelled as a
  // basis-appropriate flip of the outcome.
  virtual void on_meas(sim::FrameSim& sim, uint32_t q, bool x_basis) = 0;
  virtual void on_storage(sim::FrameSim& sim, uint32_t q) = 0;
  // False when on_storage can neither touch the frame nor count anything,
  // so run_gadget may skip its storage walk (BatchGadgetRunner skips its
  // own at eps_store = 0). Injectors that number or count every location
  // keep the default.
  [[nodiscard]] virtual bool acts_on_storage() const { return true; }
  // Span boundary announcement: gadget drivers name the sub-gadget that is
  // about to run (e.g. "prep:A", "exrec:A") so fault scans can be windowed
  // onto it. Not a fault opportunity; stochastic injectors ignore it.
  virtual void on_marker(std::string_view label) { (void)label; }
};

// Samples the stochastic model: every hook is an independent Bernoulli draw
// using the FrameSim's own RNG.
class StochasticInjector final : public NoiseInjector {
 public:
  explicit StochasticInjector(const sim::NoiseParams& params) : params_(params) {
    params_.validate();
  }

  void on_gate1(sim::FrameSim& sim, uint32_t q) override {
    pauli1(sim, q, params_.eps_gate1);
    if (params_.p_erase > 0) sim.erase_error(q, params_.p_erase);
    if (params_.p_leak > 0) sim.leak_error(q, params_.p_leak);
  }
  void on_gate2(sim::FrameSim& sim, uint32_t a, uint32_t b) override {
    if (params_.is_biased()) {
      sim.pauli_channel2(a, b, params_.eps_gate2, params_.frac_x(),
                         params_.frac_y());
    } else {
      sim.depolarize2(a, b, params_.eps_gate2);
    }
    if (params_.p_erase > 0) {
      sim.erase_error(a, params_.p_erase);
      sim.erase_error(b, params_.p_erase);
    }
    if (params_.p_leak > 0) {
      sim.leak_error(a, params_.p_leak);
      sim.leak_error(b, params_.p_leak);
    }
  }
  void on_prep(sim::FrameSim& sim, uint32_t q) override {
    sim.x_error(q, params_.eps_prep);
    if (params_.p_erase > 0) sim.erase_error(q, params_.p_erase);
  }
  void on_meas(sim::FrameSim& sim, uint32_t q, bool x_basis) override {
    if (x_basis) {
      sim.z_error(q, params_.eps_meas);
    } else {
      sim.x_error(q, params_.eps_meas);
    }
  }
  void on_storage(sim::FrameSim& sim, uint32_t q) override {
    pauli1(sim, q, params_.eps_store);
  }

 private:
  // Unbiased params take the exact depolarize1 path (bit-identical RNG
  // streams with every pre-bias pinned run); bias reroutes through the
  // explicit axis channel.
  void pauli1(sim::FrameSim& sim, uint32_t q, double eps) {
    if (params_.is_biased()) {
      sim.pauli_channel1(q, eps * params_.frac_x(), eps * params_.frac_y(),
                         eps * params_.frac_z());
    } else {
      sim.depolarize1(q, eps);
    }
  }

  sim::NoiseParams params_;
};

// Deterministic injector for exhaustive fault enumeration. Run once in
// recording mode to learn the fault locations of the noiseless path; then
// re-run with one or two (location, variant) faults armed. Location indices
// are assigned in execution order, so indices below the first armed fault
// always refer to the same physical opportunity as in the noiseless run.
class FaultPointInjector final : public NoiseInjector {
 public:
  struct Fault {
    size_t location = 0;
    int variant = 0;
  };

  FaultPointInjector() = default;  // recording mode
  // Replay mode. `record_kinds=false` skips the per-location kind log (a
  // measurable saving when a scan replays a ~50k-location gadget thousands
  // of times and only cares about the experiment's verdict).
  explicit FaultPointInjector(std::vector<Fault> faults,
                              bool record_kinds = true);

  void on_gate1(sim::FrameSim& sim, uint32_t q) override;
  void on_gate2(sim::FrameSim& sim, uint32_t a, uint32_t b) override;
  void on_prep(sim::FrameSim& sim, uint32_t q) override;
  void on_meas(sim::FrameSim& sim, uint32_t q, bool x_basis) override;
  void on_storage(sim::FrameSim& sim, uint32_t q) override;
  void on_marker(std::string_view label) override;

  // Sampled pair scans draw a variant for the location kind seen on the
  // RECORDED path; if the armed first fault reroutes control flow so a
  // different kind sits at that location, reduce the variant modulo the new
  // kind's variant count instead of aborting. Off by default: exhaustive
  // scans want the hard check.
  void set_clamp_variants(bool clamp) { clamp_variants_ = clamp; }

  // Locations seen so far (valid in both modes).
  [[nodiscard]] size_t num_locations() const { return counter_; }
  // Kinds recorded during this run (recording mode fills it fully).
  [[nodiscard]] const std::vector<LocationKind>& kinds() const { return kinds_; }
  // (label, location counter at emission) pairs, in execution order. The
  // location is the index of the NEXT fault opportunity, so two markers
  // bracket the half-open location window of the sub-gadget between them.
  [[nodiscard]] const std::vector<std::pair<std::string, size_t>>& markers()
      const {
    return markers_;
  }
  // Location window of the `occurrence`-th emission of `begin`..`end`
  // markers; FTQC_CHECKs that both exist.
  [[nodiscard]] std::pair<size_t, size_t> marker_window(
      std::string_view begin, std::string_view end,
      size_t occurrence = 0) const;

 private:
  // Returns the variant to inject at the current location, or -1.
  int step(LocationKind kind);

  std::vector<Fault> faults_;  // sorted by location
  size_t cursor_ = 0;
  size_t counter_ = 0;
  bool record_kinds_ = true;
  bool clamp_variants_ = false;
  std::vector<LocationKind> kinds_;
  std::vector<std::pair<std::string, size_t>> markers_;
};

}  // namespace ftqc::ft
