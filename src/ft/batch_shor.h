#pragma once

#include <cstdint>

#include "codes/stabilizer_code.h"
#include "ft/batch_recovery.h"
#include "ft/generic_recovery.h"
#include "ft/lanes.h"
#include "ft/recovery.h"
#include "pauli/pauli_string.h"
#include "sim/batch_frame_sim.h"
#include "sim/noise_model.h"

namespace ftqc::ft {

// Bit-parallel GenericShorRecovery: the one cat-state cycle (cat_cycle) at
// 64 shots per word through BatchLanes. Cats go through BatchCatRetry, and
// the §3.4 repeat and the correction become lane masking. The correction
// and the word-level logical verdict (batch_logical_errors) decode each
// DISTINCT syndrome value among the lanes once.
class BatchGenericShorRecovery {
 public:
  // shots is rounded up to a multiple of 64.
  BatchGenericShorRecovery(const codes::StabilizerCode& code,
                           const sim::NoiseParams& noise,
                           RecoveryPolicy policy, size_t shots, uint64_t seed);

  [[nodiscard]] size_t num_shots() const { return sim_.num_shots(); }
  [[nodiscard]] size_t num_words() const { return sim_.num_words(); }

  void reset();
  void inject_data(uint32_t q, char pauli);
  void apply_memory_noise(double p);

  void run_cycle();

  // Residual error of one lane, as a signed-free Pauli.
  [[nodiscard]] pauli::PauliString residual(size_t shot) const;
  [[nodiscard]] bool any_logical_error(size_t shot) const {
    return extraction_.logical_error(residual(shot));
  }
  // Lanes (among the first `num_lanes`; SIZE_MAX = all) whose residual
  // defeats ideal decoding.
  [[nodiscard]] uint64_t count_any_logical_error(
      size_t num_lanes = SIZE_MAX) const;

  // Cat preparations discarded by verification, summed over lanes (E3).
  [[nodiscard]] uint64_t cats_discarded() const { return cats_discarded_; }
  // Lanes whose retry budget ran out without a verified cat (also set in
  // frames().abort_mask(); empty at realistic noise).
  [[nodiscard]] uint64_t count_retry_exhausted() const;

  [[nodiscard]] sim::BatchFrameSim& frames() { return sim_; }

 private:
  CatExtraction extraction_;
  sim::BatchFrameSim sim_;
  BatchLanes lanes_;
  RecoveryPolicy policy_;
  size_t words_;
  uint64_t cats_discarded_ = 0;
};

}  // namespace ftqc::ft
