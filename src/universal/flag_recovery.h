#pragma once

#include <cstdint>

#include "codes/stabilizer_code.h"
#include "ft/noise_injector.h"
#include "ft/recovery.h"
#include "sim/frame_sim.h"
#include "sim/noise_model.h"
#include "universal/flag_extraction.h"

namespace ftqc::universal {

// One full flag-qubit recovery cycle (protocol below) on either lane engine
// (ft/lanes.h); FlagRecovery and BatchFlagRecovery both run it. Per-shot
// control flow maps to lane masks:
//  * round 1 (flagged combs) runs on every lane;
//  * the clean re-extraction runs masked to the lanes whose flag fired;
//  * the flag-conditioned correction groups those lanes by first fired
//    generator and follow-up syndrome value (for_each_syndrome_value),
//    decodes each distinct key once, and applies the fixes through
//    apply_fix — lanes whose correction is the identity take no noise;
//  * the unflagged lanes run the ordinary §3.4 repeat policy, with round
//    1's syndrome reused as the first reading.
// Returns the flagged round-1 measurements whose flag fired, summed over
// lanes.
template <typename Lanes>
uint64_t flag_cycle(Lanes& lanes, const FlagExtraction& extraction,
                    const ft::RecoveryPolicy& policy);

// Fault-tolerant recovery for an arbitrary stabilizer code via flag-qubit
// syndrome extraction: the third RecoveryPolicy family next to the Steane
// (encoded-ancilla) and Shor (cat-state) methods. Two ancilla qubits total —
// one syndrome ancilla, one flag — against the Shor method's
// max-weight cat + check qubit.
//
// Protocol per cycle:
//  1. Measure every generator once with the FLAGGED comb, recording
//     syndrome and flag bits.
//  2. Any flag fired: one full UNFLAGGED re-extraction (under a single
//     fault the fired flag spent it, so this round is clean), then decode
//     through the flag-conditioned table of the FIRST fired generator; a
//     syndrome outside the table (multi-fault) falls back to the plain
//     lookup decoder. An identity correction applies no circuit (and
//     collects no noise).
//  3. No flag: the §3.4 repeat policy on the round-1 syndrome — trivial
//     means done; nontrivial is re-read with the unflagged comb and
//     corrected only when the two readings agree.
//
// Round 1 deliberately completes ALL generators before branching (no early
// abort at the first flag): the batch engine replays whole gadgets per
// 64-lane word. Register layout: data [0, n), ancilla n, flag n+1.
class FlagRecovery {
 public:
  FlagRecovery(const codes::StabilizerCode& code, const sim::NoiseParams& noise,
               ft::RecoveryPolicy policy, uint64_t seed);

  void reset();
  void inject_data(uint32_t q, char pauli);
  void apply_memory_noise(double p);

  void run_cycle();

  [[nodiscard]] pauli::PauliString residual() const;
  [[nodiscard]] bool any_logical_error() const;

  // Flagged round-1 measurements whose flag fired, summed over cycles.
  [[nodiscard]] uint64_t flags_raised() const { return flags_raised_; }

  void set_injector(ft::NoiseInjector* injector);
  [[nodiscard]] sim::FrameSim& frame() { return frame_; }
  [[nodiscard]] const FlagDecodeTable& table() const {
    return extraction_.table;
  }

 private:
  FlagExtraction extraction_;
  sim::FrameSim frame_;
  ft::RecoveryPolicy policy_;
  ft::StochasticInjector stochastic_;
  ft::NoiseInjector* injector_;
  uint64_t flags_raised_ = 0;
};

}  // namespace ftqc::universal
