#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "codes/stabilizer_code.h"
#include "ft/batch_recovery.h"
#include "ft/generic_recovery.h"
#include "ft/recovery.h"
#include "pauli/pauli_string.h"
#include "sim/batch_frame_sim.h"
#include "sim/noise_model.h"

namespace ftqc::ft {

// Batched §3.3 cat-retry: replays a cat_prep_with_check circuit at 64 shots
// per word with the data-dependent discard loop expressed as masked
// re-replay. Attempt k re-runs ONLY the lanes that failed attempts 0..k-1:
// later attempts replay the gadget's unitaries over the whole word (the
// prep's R resets make that safe for lanes with clean frames), so lanes
// that already passed park their cat-qubit frames in a side buffer while
// the stragglers retry and are restored afterwards — a scatter/compact over
// the handful of cat qubits instead of the whole register.
//
// Retry-cap semantics: the serial path silently uses the last cat
// unverified when the budget runs out. The batch path keeps those lanes'
// last-attempt frames (same statistics) but ALSO surfaces them in the sim's
// abort mask via discard_lanes, so a forced-failure pathology (e.g. a
// deliberately broken verification) cannot masquerade as a verified
// ancilla; at this library's noise scales the cap is unreachable and the
// mask stays empty.
class BatchCatRetry {
 public:
  explicit BatchCatRetry(sim::BatchFrameSim& sim);

  // `prep` must measure exactly one qubit (the cat check); `cat` names the
  // qubits whose frames carry the prepared state past the retry loop.
  // `active` (nullptr = all) restricts the whole loop to the lanes whose
  // shot is executing this preparation. A lane fails an attempt when the
  // check bit flips (policy.verify_ancilla) OR any cat qubit carries a
  // heralded erasure (policy.herald_reinit, p_erase > 0) — mirroring the
  // serial discard decision bit for bit. Returns the number of discarded
  // cats summed over lanes (the serial cats_discarded counter).
  uint64_t prepare(BatchGadgetRunner& gadgets, const sim::Circuit& prep,
                   std::span<const uint32_t> cat,
                   std::span<const uint32_t> active_qubits,
                   const RecoveryPolicy& policy, const uint64_t* active);

 private:
  sim::BatchFrameSim& sim_;
  std::vector<uint64_t> need_, passed_any_, failed_, scratch_;
  std::vector<uint64_t> parked_;  // [cat qubit][x|z][word]
};

// Bit-parallel GenericShorRecovery: the same cycle at 64 shots per word on
// the serial driver's CatExtraction. Cats go through BatchCatRetry, and the
// §3.4 repeat and the correction become lane masking. The correction and
// the word-level logical verdict decode each DISTINCT syndrome value among
// the lanes once; the correction then draws noise qubit by qubit in data
// order, the draws of batch_correct_data_block. On codes::steane() it makes
// the serial driver's decisions lane for lane (ShorFingerprint.*).
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
  // Writes one syndrome row per generator of `group` (in index order).
  void extract_syndrome(uint64_t group, const uint64_t* active,
                        uint64_t* rows);
  void correct(uint64_t group, const uint64_t* rows, const uint64_t* act);
  // Lanes whose residual frame anticommutes with `p` (words_ words).
  void anticommuting_lanes(const pauli::PauliString& p, uint64_t* out) const;

  CatExtraction extraction_;
  sim::BatchFrameSim sim_;
  BatchGadgetRunner gadgets_;
  BatchCatRetry retry_;
  RecoveryPolicy policy_;
  size_t words_;
  uint64_t cats_discarded_ = 0;
};

}  // namespace ftqc::ft
