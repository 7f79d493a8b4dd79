#pragma once

#include <cstdint>
#include <vector>

#include "codes/stabilizer_code.h"
#include "ft/batch_recovery.h"
#include "ft/recovery.h"
#include "sim/batch_frame_sim.h"
#include "sim/noise_model.h"
#include "universal/flag_extraction.h"

namespace ftqc::universal {

// Bit-parallel FlagRecovery: the flag-qubit recovery cycle on 64 shots per
// word, replaying the same FlagExtraction combs through BatchGadgetRunner
// with the noise masked to the lanes whose serial shot would execute each
// gadget. Per-shot control flow maps to lane masks:
//  * round 1 (flagged combs) runs on every lane;
//  * the clean re-extraction runs masked to the lanes whose flag fired;
//  * the flag-conditioned correction groups those lanes by first fired
//    generator and follow-up syndrome value (for_each_syndrome_value),
//    decodes each distinct key once, and applies the fixes through
//    batch_apply_fix — lanes whose correction is the identity take no
//    noise, as the serial early return;
//  * the unflagged lanes run the ordinary §3.4 repeat policy through
//    run_batch_repeat_policy, with round 1's syndrome reused as the first
//    reading (the closure's first extract call copies it instead of
//    measuring again — serial shots never re-measure round 1 either).
// Identical control flow is what pins this driver bit-for-bit against the
// serial FlagRecovery under deterministic injections. The verdict is
// word-level (batch_logical_errors).
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
  // One unflagged comb on the lanes of `active`; writes the bit-sliced
  // syndrome bit (words words) into `out`.
  void measure_unflagged(size_t g, const uint64_t* active, uint64_t* out);
  // Flag-conditioned correction for the lanes of `flagged_mask`.
  void correct_flagged(const std::vector<uint64_t>& flag_rows,
                       const uint64_t* syndrome_rows,
                       const uint64_t* flagged_mask);
  // batch_apply_fix on the lanes whose correction is not the identity.
  void apply_fixes(const std::vector<uint64_t>& fix_x,
                   const std::vector<uint64_t>& fix_z);

  FlagExtraction extraction_;
  sim::BatchFrameSim sim_;
  ft::BatchGadgetRunner gadgets_;
  ft::RecoveryPolicy policy_;
  size_t words_;
  uint64_t all_generators_;  // bitmask over the code's generators
  uint64_t flags_raised_ = 0;
};

}  // namespace ftqc::universal
