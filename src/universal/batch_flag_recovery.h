#pragma once

#include <cstdint>
#include <vector>

#include "codes/stabilizer_code.h"
#include "ft/batch_recovery.h"
#include "ft/lanes.h"
#include "ft/recovery.h"
#include "sim/batch_frame_sim.h"
#include "sim/noise_model.h"
#include "universal/flag_extraction.h"

namespace ftqc::universal {

// Bit-parallel FlagRecovery: the one flag-qubit cycle (flag_cycle) on 64
// shots per word, replaying the FlagExtraction combs through BatchLanes with
// the noise masked to the lanes whose serial shot would execute each gadget.
// The verdict is word-level (batch_logical_errors).
class BatchFlagRecovery {
 public:
  BatchFlagRecovery(const codes::StabilizerCode& code,
                    const sim::NoiseParams& noise, ft::RecoveryPolicy policy,
                    size_t shots, uint64_t seed);

  [[nodiscard]] size_t num_shots() const { return sim_.num_shots(); }
  [[nodiscard]] size_t num_words() const { return sim_.num_words(); }

  void reset();
  void inject_data(uint32_t q, char pauli);
  void apply_memory_noise(double p);

  void run_cycle();

  [[nodiscard]] pauli::PauliString residual(size_t shot) const;
  [[nodiscard]] bool any_logical_error(size_t shot) const;
  // Lanes whose residual defeats ideal decoding, as num_words() words.
  void logical_error_lanes(uint64_t* out) const;
  [[nodiscard]] uint64_t count_any_logical_error(
      size_t num_lanes = SIZE_MAX) const;

  // Flagged round-1 measurements whose flag fired, summed over lanes.
  [[nodiscard]] uint64_t flags_raised() const { return flags_raised_; }

  [[nodiscard]] sim::BatchFrameSim& frames() { return sim_; }
  [[nodiscard]] const FlagDecodeTable& table() const {
    return extraction_.table;
  }

 private:
  FlagExtraction extraction_;
  sim::BatchFrameSim sim_;
  ft::BatchLanes lanes_;
  ft::RecoveryPolicy policy_;
  size_t words_;
  uint64_t all_generators_;  // bitmask over the code's generators
  uint64_t flags_raised_ = 0;
};

}  // namespace ftqc::universal
