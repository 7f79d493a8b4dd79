#pragma once

#include <cstdint>
#include <vector>

#include "ft/batch_recovery.h"
#include "ft/lanes.h"
#include "ft/recovery.h"
#include "sim/batch_frame_sim.h"
#include "sim/noise_model.h"

namespace ftqc::ft {

// Bit-parallel Level2Recovery: the one level-2 cycle (level2_cycle, §5,
// Fig. 14) on 64 shots per word through BatchLanes. Statistically
// equivalent to `shots` independent Level2Recovery instances under the same
// NoiseParams/RecoveryPolicy, for BOTH disciplines:
//
//  * kBare replays the "all levels simultaneously" extraction: one 49-qubit
//    transversal measurement decoded hierarchically per lane, all in word
//    ops (per-subblock syndrome rows are XORs of record rows; the level-2
//    syndrome is the Hamming decode of the seven bit-sliced subblock
//    logical-value words);
//  * kExRec additionally nests a verified level-1 Steane recovery
//    (steane_cycle) on every 7-qubit subblock of the level-2 ancilla — and,
//    with exrec_data_recoveries, on the data subblocks — passing down the
//    current active-lane mask so nested per-shot control flow (repeats,
//    verification fixes, corrections) composes with the level-2 gadget's
//    own (§3.4 repeats only re-extract on nontrivial lanes, corrections only
//    fire on agreeing lanes).
//
// Corrections at both levels are per-lane masked Pauli injections with the
// serial path's fault opportunities: gate noise on each corrected qubit
// (twice where a level-1 and the level-2 logical fix coincide, matching the
// serial two-gate circuit whose injections cancel), storage noise on the
// rest of the data block, and nothing at all on lanes that deferred.
//
// Register layout matches Level2Recovery: data [0,49), ancilla A [49,98),
// verification ancilla B [98,147), level-1 scratch ancillas [147,161)
// (exRec only). Leakage is not representable; p_leak > 0 is an error.
class BatchLevel2Recovery {
 public:
  static constexpr size_t kBlock = 49;
  static constexpr uint32_t kNumQubits = 161;

  // shots is rounded up to a multiple of 64.
  BatchLevel2Recovery(const sim::NoiseParams& noise, RecoveryPolicy policy,
                      size_t shots, uint64_t seed);

  [[nodiscard]] size_t num_shots() const { return sim_.num_shots(); }
  [[nodiscard]] size_t num_words() const { return sim_.num_words(); }

  void reset();
  void inject_data(uint32_t q, char pauli);
  void apply_memory_noise(double p);

  // One full two-level recovery cycle across all lanes.
  void run_cycle();

  // Lanes (among the first `num_lanes`; SIZE_MAX = all) whose residual
  // frame defeats the hierarchical ideal decode.
  [[nodiscard]] uint64_t count_any_logical_error(
      size_t num_lanes = SIZE_MAX) const;

  // Per-lane introspection for tests.
  [[nodiscard]] bool logical_x_error(size_t shot) const;
  [[nodiscard]] bool logical_z_error(size_t shot) const;
  [[nodiscard]] bool any_logical_error(size_t shot) const {
    return logical_x_error(shot) || logical_z_error(shot);
  }

  [[nodiscard]] sim::BatchFrameSim& frames() { return sim_; }

 private:
  // Per-lane residual logical error on one side (phase_type false = X),
  // bit-sliced across the whole register.
  void residual_logical(bool phase_type, uint64_t* out) const;

  sim::BatchFrameSim sim_;
  BatchLanes lanes_;
  RecoveryPolicy policy_;
  size_t words_;
};

}  // namespace ftqc::ft
