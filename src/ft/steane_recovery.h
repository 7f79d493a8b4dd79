#pragma once

#include <array>
#include <cstdint>

#include "ft/noise_injector.h"
#include "ft/recovery.h"
#include "sim/frame_sim.h"
#include "sim/noise_model.h"

namespace ftqc::ft {

// Qubit placement of one Fig. 9 recovery cycle inside a caller-owned frame:
// the block under recovery plus its syndrome and verification ancilla
// blocks. SteaneRecovery uses the fixed steane_layout register; the level-2
// extended-rectangle interleave (concatenated_recovery) aims the same cycle
// at each 7-qubit subblock of a 49-qubit block with shared scratch ancillas.
struct SteaneCycleLayout {
  std::array<uint32_t, 7> data{};
  std::array<uint32_t, 7> anc_a{};
  std::array<uint32_t, 7> anc_b{};
};

// Every circuit one cycle executes, precompiled for a fixed layout. The
// exhaustive fault scans replay a level-2 cycle — which nests 14+ level-1
// cycles — hundreds of thousands of times, so rebuilding these per call
// would triple the scan's wall clock.
struct SteaneCycleCircuits {
  SteaneCycleLayout layout;
  sim::Circuit zero_prep_a;
  sim::Circuit zero_prep_b;
  sim::Circuit cx_ab;
  sim::Circuit measure_b;
  // Indexed by phase_type (false=bit-flip, true=phase-flip).
  std::array<sim::Circuit, 2> syndrome;
};

[[nodiscard]] SteaneCycleCircuits compile_steane_cycle(
    const SteaneCycleLayout& layout);
// The cycle on the steane_layout register of SteaneRecovery and
// BatchSteaneRecovery, compiled once.
[[nodiscard]] const SteaneCycleCircuits& steane_register_cycle();

// One full fault-tolerant Steane recovery cycle (Fig. 9) on
// `circuits.layout`, on either lane engine (ft/lanes.h): SteaneRecovery and
// BatchSteaneRecovery run it on their whole register, and the level-2 exRec
// interleave aims it at each 7-qubit subblock. Storage accounting is local
// to the 21 named qubits: data+anc_a idle during syndrome-ancilla work, all
// 21 during verification — the §6 "maximal parallelism" rule applied to
// this cycle's own register. Corrections land in place; the caller decodes
// the residual frame. `active` (nullptr = all lanes) is the incoming lane
// mask: lanes cleared in it collect no noise, no verification fixes and no
// corrections, as if their shot had skipped the cycle. Every mask the cycle
// derives (verification votes, nontrivial syndromes, §3.4 agreement) is
// composed with `active`, which is what lets the level-2 cycle nest this
// one inside its own per-lane control flow.
template <typename Lanes>
void steane_cycle(Lanes& lanes, const RecoveryPolicy& policy,
                  const SteaneCycleCircuits& circuits, const uint64_t* active);

// Fault-tolerant error recovery for one Steane block using Steane's
// encoded-ancilla method — the complete circuit of Fig. 9:
//
//   1. prepare |0>_code ancilla blocks and verify them against a second
//      encoded block (§3.3);
//   2. bit-flip syndrome: verified ancilla rotated to the Steane state
//      (Eq. 17), transversal XOR data->ancilla, destructive Z measurement,
//      classical Hamming check (§3.6);
//   3. phase-flip syndrome: verified |0>_code ancilla, transversal XOR
//      ancilla->data, destructive X measurement, Hamming check;
//   4. §3.4 syndrome repetition: act only on a nontrivial syndrome read
//      twice in agreement.
//
// Runs on a Pauli frame, so one cycle costs microseconds and the level-1
// failure analysis (E5/E6) can afford exhaustive two-fault enumeration.
//
// Register layout: data block [0,7), syndrome ancilla [7,14), verification
// ancilla [14,21).
class SteaneRecovery {
 public:
  static constexpr uint32_t kNumQubits = 21;

  SteaneRecovery(const sim::NoiseParams& noise, RecoveryPolicy policy,
                 uint64_t seed);

  // Returns the frame to the all-clean state.
  void reset();

  // Injects a Pauli on a data qubit (error-channel input for experiments).
  void inject_data(uint32_t q, char pauli);
  // iid depolarizing channel on every data qubit (the memory step of E1/E5).
  void apply_memory_noise(double p);

  // One full fault-tolerant recovery cycle (Fig. 9).
  void run_cycle();

  // Residual data-block errors, ideally decoded: true if the block carries a
  // logical X (resp. Z) error that ideal recovery can no longer repair.
  [[nodiscard]] bool logical_x_error() const;
  [[nodiscard]] bool logical_z_error() const;
  [[nodiscard]] bool any_logical_error() const {
    return logical_x_error() || logical_z_error();
  }

  // Raw residual weight per error type (for the "two errors in a block"
  // accounting of §3).
  [[nodiscard]] size_t residual_x_weight() const;
  [[nodiscard]] size_t residual_z_weight() const;

  // Residual weight reduced modulo the stabilizer: a frame pattern equal to
  // a stabilizer element (e.g. the X part of a prep fault that fans out into
  // exactly one generator's support) acts trivially on the code space and
  // counts as weight 0. This is the §3 notion of "errors in a block".
  [[nodiscard]] size_t residual_x_coset_weight() const;
  [[nodiscard]] size_t residual_z_coset_weight() const;

  // Replaces the stochastic injector (owned default) with an external one;
  // used by the fault enumerator. Pass nullptr to restore the default.
  void set_injector(NoiseInjector* injector);

  [[nodiscard]] sim::FrameSim& frame() { return frame_; }

 private:
  sim::FrameSim frame_;
  RecoveryPolicy policy_;
  StochasticInjector stochastic_;
  NoiseInjector* injector_;  // points at stochastic_ unless overridden
};

}  // namespace ftqc::ft
