#pragma once

#include "sim/circuit.h"

namespace ftqc::sim {

// The stochastic error model of §6, as knobs:
//  * eps_store  — per qubit, per time step (TICK), equal X/Y/Z: applied to
//                 every qubit that rested during the step ("storage errors
//                 that afflict the resting qubits").
//  * eps_gate1  — after each 1-qubit gate, equal X/Y/Z on its target.
//  * eps_gate2  — after each 2-qubit gate, a uniform non-identity 2-qubit
//                 Pauli on its targets (the pessimistic "a faulty XOR gate
//                 introduces errors in both the source and the target").
//  * eps_meas   — measurement-outcome flip (X before M, Z before MX).
//  * eps_prep   — faulty |0> preparation (X after R / MR).
//  * p_leak     — per-gate leakage out of the computational space (§6).
//
// Errors are spatially and temporally uncorrelated, matching the paper's
// "uncorrelated errors" assumption.
struct NoiseParams {
  double eps_store = 0.0;
  double eps_gate1 = 0.0;
  double eps_gate2 = 0.0;
  double eps_meas = 0.0;
  double eps_prep = 0.0;
  double p_leak = 0.0;
  // Per-axis Pauli bias weights. (1,1,1) is the unbiased depolarizing model
  // and compiles to the exact same DEPOLARIZE1/2 ops (bit-identical RNG
  // streams); anything else emits PAULI_CHANNEL1/2 with axis probabilities
  // eps * bias_i / (bias_x + bias_y + bias_z). A Z-biased channel with
  // eta = p_z / p_x is (1, 1, 2*eta - 1) in the convention p_y = p_x.
  double bias_x = 1.0;
  double bias_y = 1.0;
  double bias_z = 1.0;
  // Heralded erasure per gate (and per prep): with this probability the
  // qubit is replaced by the maximally mixed state and a herald is
  // recorded. Unlike p_leak, every engine (batch included) supports it.
  double p_erase = 0.0;

  // The single-knob model used for the threshold estimates (Eq. 34/35):
  // every gate-type error probability set to eps_gate, storage separate.
  [[nodiscard]] static NoiseParams uniform_gate(double eps_gate,
                                                double eps_store = 0.0) {
    NoiseParams p;
    p.eps_gate1 = eps_gate;
    p.eps_gate2 = eps_gate;
    p.eps_meas = eps_gate;
    p.eps_prep = eps_gate;
    p.eps_store = eps_store;
    return p;
  }

  // Measurement-error-only model: every gate, preparation and storage step
  // is perfect and only the readout flips. Isolates the §3.4 question of how
  // much syndrome repetition buys when the syndrome itself is the unreliable
  // ingredient (bench E04).
  [[nodiscard]] static NoiseParams measurement_only(double eps_meas) {
    NoiseParams p;
    p.eps_meas = eps_meas;
    return p;
  }

  // uniform_gate with a Z-over-X bias eta = p_z / p_x (p_y = p_x): the
  // hardware-reality dephasing-dominated channel.
  [[nodiscard]] static NoiseParams biased_gate(double eps_gate, double eta,
                                               double eps_store = 0.0) {
    NoiseParams p = uniform_gate(eps_gate, eps_store);
    p.bias_x = 1.0;
    p.bias_y = 1.0;
    p.bias_z = eta;
    return p;
  }

  // uniform_gate plus heralded erasure at rate p_erase per gate location.
  [[nodiscard]] static NoiseParams with_erasure(double eps_gate,
                                                double p_erase) {
    NoiseParams p = uniform_gate(eps_gate);
    p.p_erase = p_erase;
    return p;
  }

  [[nodiscard]] bool is_biased() const {
    return !(bias_x == bias_y && bias_y == bias_z);
  }

  // Conditional axis fractions f_x + f_y + f_z = 1 of the gate channels.
  [[nodiscard]] double frac_x() const {
    return bias_x / (bias_x + bias_y + bias_z);
  }
  [[nodiscard]] double frac_y() const {
    return bias_y / (bias_x + bias_y + bias_z);
  }
  [[nodiscard]] double frac_z() const {
    return bias_z / (bias_x + bias_y + bias_z);
  }

  // Aborts through FTQC_CHECK, naming the offending field, unless every
  // rate is finite and in [0, 1] and the bias weights are finite,
  // non-negative and of positive sum. Unchecked, a NaN or negative rate reads
  // as "no noise" in FrameSim's channels and silently yields clean frames.
  void validate() const;

  [[nodiscard]] bool is_noiseless() const {
    return eps_store == 0 && eps_gate1 == 0 && eps_gate2 == 0 &&
           eps_meas == 0 && eps_prep == 0 && p_leak == 0 && p_erase == 0;
  }
};

// Compiles an ideal circuit into a noisy one by inserting channel ops:
// gate noise directly after each unitary, measurement noise before each
// M/MX/MR, preparation noise after each R/MR, and storage noise on the
// qubits that idled in each TICK layer: the fault opportunities
// ft::run_gadget announces when every qubit is active.
[[nodiscard]] Circuit add_noise(const Circuit& ideal, const NoiseParams& params);

// Number of fault locations the model exposes in a circuit (used by the
// fault enumerator and by the analytic coefficient counting in E6).
[[nodiscard]] size_t count_fault_locations(const Circuit& noisy);

}  // namespace ftqc::sim
