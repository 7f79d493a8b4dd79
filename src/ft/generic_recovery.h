#pragma once

#include <cstdint>
#include <vector>

#include "codes/lookup_decoder.h"
#include "codes/stabilizer_code.h"
#include "ft/noise_injector.h"
#include "ft/recovery.h"
#include "sim/circuit.h"
#include "sim/frame_sim.h"
#include "sim/noise_model.h"

namespace ftqc::ft {

// What a cat-state recovery driver reads off its code, built once per
// driver and shared by the serial and batch engines so their circuits and
// decoding cannot drift. Register layout: data [0, n), cat [n, n + max
// generator weight), check qubit last.
//
// Everything that differs between codes follows from the generators:
//  * a pure-Z generator is read out through a Shor state (§3.2): the
//    verified cat gets its final Hadamards and each supported data qubit
//    XORs into its own cat bit (Fig. 6 "Good!"), read in the Z basis; any
//    other generator uses the plain cat, one controlled-Pauli per supported
//    qubit and an X-basis readout (§3.6). Either way the syndrome bit is the
//    parity of the `width` readout bits;
//  * a CSS code extracts, repeats (§3.4) and corrects its Z-type generators
//    before its X-type ones, as Steane's bit-flip and phase-flip syndromes;
//    any other code is one group;
//  * each group's syndrome is decoded on its own, both for the correction
//    and for the final logical verdict.
struct CatExtraction {
  explicit CatExtraction(const codes::StabilizerCode& code);

  struct Generator {
    size_t width = 0;
    sim::Circuit prep;     // cat_prep_with_check: measures the check bit
    sim::Circuit readout;  // measures the `width` cat bits
  };

  // True if `residual` (on the data block) is a logical error once each
  // group's part of its syndrome is decoded and corrected.
  [[nodiscard]] bool logical_error(const pauli::PauliString& residual) const;

  const codes::StabilizerCode& code;
  codes::LookupDecoder decoder;
  std::vector<uint32_t> data;
  std::vector<uint32_t> cat;
  uint32_t check = 0;
  std::vector<uint32_t> all_qubits;
  std::vector<Generator> generators;
  // Generator bitmasks (bit g = generator g), extracted in this order.
  std::vector<uint64_t> groups;
};

// One full cat-state recovery cycle on either lane engine (ft/lanes.h):
// for each generator group, measure its generators with verified cats
// (repeating per policy), decode each distinct syndrome value with the
// code's lookup decoder and apply the correction through apply_fix. Cats go
// through the engine's retry (the §3.3 discard loop). Returns the discarded
// cats, summed over lanes. GenericShorRecovery and BatchGenericShorRecovery
// both run it.
template <typename Lanes>
uint64_t cat_cycle(Lanes& lanes, const CatExtraction& extraction,
                   const RecoveryPolicy& policy);

// Fault-tolerant recovery for an ARBITRARY stabilizer code via the
// generalized Shor method of §3.6: each generator is measured with a
// verified cat state whose width equals the generator weight (see
// CatExtraction), syndromes follow the §3.4 repetition policy, and
// corrections come from the code's minimum-weight lookup decoder. On the
// Steane code this is the cat-state recovery of §3.2-§3.4.
//
// This is the machinery behind the §4.2 claim that "universal fault-tolerant
// quantum computation can be achieved with any stabilizer code" — including
// the five-qubit code (whose generators mix X and Z on one qubit) and the
// [[15,7,3]] Hamming CSS code.
class GenericShorRecovery {
 public:
  GenericShorRecovery(const codes::StabilizerCode& code,
                      const sim::NoiseParams& noise, RecoveryPolicy policy,
                      uint64_t seed);

  void reset();
  void inject_data(uint32_t q, char pauli);
  void apply_memory_noise(double p);

  // One full recovery cycle: for each generator group, measure its
  // generators (repeating per policy), decode, apply the correction.
  void run_cycle();

  // Residual error on the data block, as a signed-free Pauli.
  [[nodiscard]] pauli::PauliString residual() const;
  // True if the residual defeats ideal decoding (a logical error).
  [[nodiscard]] bool any_logical_error() const {
    return extraction_.logical_error(residual());
  }

  // Cat preparations discarded by verification so far (E3).
  [[nodiscard]] size_t cats_discarded() const { return cats_discarded_; }
  void set_injector(NoiseInjector* injector);
  [[nodiscard]] sim::FrameSim& frame() { return frame_; }

 private:
  CatExtraction extraction_;
  sim::FrameSim frame_;
  RecoveryPolicy policy_;
  StochasticInjector stochastic_;
  NoiseInjector* injector_;
  size_t cats_discarded_ = 0;
};

// Emits a controlled-Pauli (CX / CZ / CY) from `control` onto `target`;
// CY is decomposed as S_target · CX · S†_target so every engine supports it.
void append_controlled_pauli(sim::Circuit& circuit, uint32_t control,
                             uint32_t target, char pauli);

}  // namespace ftqc::ft
