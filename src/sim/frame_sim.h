#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "gf2/bitvec.h"
#include "pauli/pauli_string.h"
#include "sim/circuit.h"

namespace ftqc::sim {

// Pauli-frame simulator: tracks the Pauli difference between the actual noisy
// run and a noiseless reference run of the same Clifford circuit. A frame is
// a pair of bit vectors (X part, Z part). Measurement results are reported as
// *flips* relative to the reference outcome; circuits used with this engine
// are designed so the reference value of every decoded quantity (syndrome
// bits, parities, verification checks) is zero, which makes the flip itself
// the quantity of interest.
//
// After a Z measurement the physical state collapses, making the Z frame on
// the measured qubit gauge; a fresh random Z is injected to keep frame
// statistics faithful (the standard trick from Stim-style frame samplers).
class FrameSim {
 public:
  explicit FrameSim(size_t num_qubits, uint64_t seed = 1);

  [[nodiscard]] size_t num_qubits() const { return n_; }

  void clear();

  // The per-location ops (gates, reset, measurements and the Pauli
  // channels) are defined in this header: a serial replay pays per location,
  // not per out-of-line call. Each gate checks its indices before it reads
  // a herald.

  // --- Clifford frame propagation ----------------------------------------
  void apply_h(size_t q) {
    FTQC_DCHECK(q < n_, "qubit index out of range");
    if (leaked_[q]) return;
    const bool x = x_.get(q);
    x_.set(q, z_.get(q));
    z_.set(q, x);
  }

  void apply_s(size_t q) {  // same frame action as S_DAG
    FTQC_DCHECK(q < n_, "qubit index out of range");
    if (leaked_[q]) return;
    // S maps X -> Y: the Z component toggles when an X is present. Signs are
    // irrelevant to a frame.
    if (x_.get(q)) z_.flip(q);
  }

  void apply_cx(size_t control, size_t target) {
    FTQC_DCHECK(control < n_ && target < n_, "qubit index out of range");
    if (leaked_[control] || leaked_[target]) return;
    if (x_.get(control)) x_.flip(target);   // X propagates forward (§3.1)
    if (z_.get(target)) z_.flip(control);   // Z propagates backward (§3.1)
  }

  void apply_cz(size_t a, size_t b) {
    FTQC_DCHECK(a < n_ && b < n_, "qubit index out of range");
    if (leaked_[a] || leaked_[b]) return;
    if (x_.get(a)) z_.flip(b);
    if (x_.get(b)) z_.flip(a);
  }

  void apply_swap(size_t a, size_t b) {
    FTQC_DCHECK(a < n_ && b < n_, "qubit index out of range");
    if (leaked_[a] || leaked_[b]) return;
    const bool xa = x_.get(a), za = z_.get(a);
    x_.set(a, x_.get(b));
    z_.set(a, z_.get(b));
    x_.set(b, xa);
    z_.set(b, za);
  }

  // --- Errors -------------------------------------------------------------
  void inject_x(size_t q) { x_.flip(q); }
  void inject_y(size_t q) { x_.flip(q); z_.flip(q); }
  void inject_z(size_t q) { z_.flip(q); }
  void inject(const pauli::PauliString& p);

  void depolarize1(size_t q, double p) {
    if (p <= 0) return;  // keep the RNG stream aligned with the batch engine
    if (!rng_.bernoulli(p)) return;
    // X, Y or Z with equal probability (the §6 storage model).
    switch (rng_.next_below(3)) {
      case 0: inject_x(q); break;
      case 1: inject_y(q); break;
      default: inject_z(q); break;
    }
  }

  void depolarize2(size_t a, size_t b, double p) {
    if (p <= 0) return;
    if (!rng_.bernoulli(p)) return;
    // One of the 15 non-identity two-qubit Paulis, uniformly: the paper's
    // pessimistic rule that a faulty gate may damage every qubit it touches.
    const uint64_t which = rng_.next_below(15) + 1;  // 1..15, 2 bits per qubit
    inject_code(a, which & 3);
    inject_code(b, (which >> 2) & 3);
  }

  void x_error(size_t q, double p) {
    if (p <= 0) return;
    if (rng_.bernoulli(p)) inject_x(q);
  }

  void z_error(size_t q, double p) {
    if (p <= 0) return;
    if (rng_.bernoulli(p)) inject_z(q);
  }

  void y_error(size_t q, double p) {
    if (p <= 0) return;
    if (rng_.bernoulli(p)) inject_y(q);
  }

  // Biased Pauli channels (see Gate::PAULI_CHANNEL1/2): X/Y/Z with
  // probabilities px/py/pz; the 2-qubit form takes the total probability
  // and the conditional axis fractions (fz = 1 - fx - fy).
  void pauli_channel1(size_t q, double px, double py, double pz);
  void pauli_channel2(size_t a, size_t b, double p, double fx, double fy);

  // --- Measurement / reset (flip semantics) -------------------------------
  // Flip of a Z-basis measurement outcome relative to the reference.
  bool measure_z(size_t q) {
    const bool flip = x_.get(q);
    // Collapse gauge: the post-measurement Z frame is unobservable.
    if (rng_.next_u64() & 1) z_.flip(q);
    return flip;
  }

  bool measure_x(size_t q) {
    const bool flip = z_.get(q);
    if (rng_.next_u64() & 1) x_.flip(q);
    return flip;
  }

  void reset(size_t q) {
    x_.set(q, false);
    z_.set(q, false);
    leaked_[q] = false;
    erased_[q] = false;
  }

  // Flip of a transversal Z-measurement parity over `qubits` (no collapse
  // randomization; use when qubits are measured destructively en bloc).
  [[nodiscard]] bool destructive_z_flip(size_t q) const { return x_.get(q); }
  [[nodiscard]] bool destructive_x_flip(size_t q) const { return z_.get(q); }

  // --- Leakage ------------------------------------------------------------
  // The herald calls check their index in every build: std::vector<bool>
  // would otherwise read or write past its end without a trace.
  void leak_error(size_t q, double p);
  void mark_leaked(size_t q) {
    check_herald_index(q);
    leaked_[q] = true;
  }
  [[nodiscard]] bool is_leaked(size_t q) const {
    check_herald_index(q);
    return leaked_[q];
  }

  // --- Heralded erasure ----------------------------------------------------
  // With probability p: herald the qubit and replace it by the maximally
  // mixed state — in frame space, a uniform Pauli twirl (the frame's X and Z
  // bits become fresh uniform random bits). Gates keep acting normally on an
  // erased qubit, which is what lets the batch engine run erasure at full
  // width (contrast leak_error). reset() clears the herald: a freshly
  // prepared replacement qubit is not erased.
  void erase_error(size_t q, double p);
  // Deterministic herald-only variant (no frame randomization, no RNG
  // draws): the cross-engine pinning tests use it to compare herald planes
  // bit for bit.
  void mark_erased(size_t q) {
    check_herald_index(q);
    erased_[q] = true;
  }
  [[nodiscard]] bool is_erased(size_t q) const {
    check_herald_index(q);
    return erased_[q];
  }
  // Clears every herald without touching frames: drivers that consume
  // heralds once per decode window call this between windows.
  void clear_heralds() {
    std::fill(erased_.begin(), erased_.end(), false);
  }

  // --- Introspection -------------------------------------------------------
  [[nodiscard]] const gf2::BitVec& x_frame() const { return x_; }
  [[nodiscard]] const gf2::BitVec& z_frame() const { return z_; }
  [[nodiscard]] pauli::PauliString frame() const;

  Rng& rng() { return rng_; }

 private:
  // 2-qubit Pauli code of depolarize2 / pauli_channel2: 1 = X, 2 = Z, 3 = Y.
  void inject_code(size_t q, uint64_t code) {
    switch (code) {
      case 1: inject_x(q); break;
      case 2: inject_z(q); break;
      case 3: inject_y(q); break;
      default: break;
    }
  }

  void check_herald_index(size_t q) const {
    FTQC_CHECK(q < n_, "herald qubit index out of range");
  }

  size_t n_;
  gf2::BitVec x_;
  gf2::BitVec z_;
  std::vector<bool> leaked_;
  std::vector<bool> erased_;
  Rng rng_;
};

}  // namespace ftqc::sim
