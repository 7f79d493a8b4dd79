#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "codes/lookup_decoder.h"
#include "ft/recovery.h"
#include "ft/steane_recovery.h"
#include "gf2/hamming.h"
#include "sim/batch_frame_sim.h"
#include "sim/noise_model.h"
#include "sim/simd.h"

namespace ftqc::ft {

// --- Shared bit-parallel building blocks ------------------------------------
//
// Every recovery cycle (level-1 Steane, the level-2 exRec cycle, the
// cat-state and flag cycles) is written once over the lane engines of
// ft/lanes.h and replays its ideal gadget circuits with the §6 noise hooks
// masked to the lanes that "really" execute each gadget. These helpers are
// the common word-level substrate — one copy of each lane-mask mechanism
// (retry a preparation on the lanes that failed it, group lanes by
// syndrome value, apply a masked Pauli fix with its noise, judge the
// residual) — so the cycles cannot drift apart on noise accounting or
// decode conventions.

// True if any lane bit is set in `mask` (words words).
[[nodiscard]] inline bool batch_any_lane(const uint64_t* mask, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if (mask[w] != 0) return true;
  }
  return false;
}

// Popcount of `mask` restricted to the first `num_lanes` lanes.
[[nodiscard]] inline uint64_t batch_count_lanes(const uint64_t* mask,
                                                size_t words,
                                                size_t num_lanes) {
  uint64_t count = 0;
  const size_t full = words < num_lanes / 64 ? words : num_lanes / 64;
  for (size_t w = 0; w < full; ++w) count += __builtin_popcountll(mask[w]);
  if (full < words && num_lanes % 64 != 0) {
    const uint64_t tail = (uint64_t{1} << (num_lanes % 64)) - 1;
    count += __builtin_popcountll(mask[full] & tail);
  }
  return count;
}

// §6 channel application shared by every batched driver, mirroring the
// serial StochasticInjector hook for hook: bias reroutes the depolarizing
// draw through the explicit per-axis channels, and gate/prep locations take
// a heralded-erasure draw when p_erase > 0. The unbiased p_erase = 0 path
// calls depolarize1/2 / x_error directly, preserving the pinned RNG
// streams bit for bit. Leakage has no batch form — drivers reject it at
// construction with UnsupportedChannel.
void batch_on_gate1(sim::BatchFrameSim& sim, const sim::NoiseParams& noise,
                    uint32_t q, const uint64_t* lane_mask);
void batch_on_gate2(sim::BatchFrameSim& sim, const sim::NoiseParams& noise,
                    uint32_t a, uint32_t b, const uint64_t* lane_mask);
void batch_on_prep(sim::BatchFrameSim& sim, const sim::NoiseParams& noise,
                   uint32_t q, const uint64_t* lane_mask);
void batch_on_storage(sim::BatchFrameSim& sim, const sim::NoiseParams& noise,
                      uint32_t q, const uint64_t* lane_mask);

// §3.4 mask algebra, shared by every batched driver's run_cycle so the
// repeat-policy convention cannot drift between them. `syndrome_rows` is
// num_rows * words words.
//
// Lanes whose syndrome has any set bit, intersected with `active`
// (nullptr = all lanes).
void batch_nontrivial_mask(const uint64_t* syndrome_rows, size_t num_rows,
                           const uint64_t* active, uint64_t* out,
                           size_t words);
// Lanes of `nontrivial` whose two syndrome readings agree on every row —
// the lanes that act; the §3.4 conflicted lanes defer.
void batch_agreement_mask(const uint64_t* syn1, const uint64_t* syn2,
                          size_t num_rows, const uint64_t* nontrivial,
                          uint64_t* out, size_t words);

// One full §3.4 repeat-policy round, the control-flow skeleton every
// recovery cycle shares, on a lane engine (ft/lanes.h): extract the syndrome
// on the active lanes, stop if every lane read trivial, optionally
// re-extract on just the nontrivial lanes and keep the agreeing ones, then
// hand (first syndrome, acting mask) to `correct`. `extract(mask, out)`
// writes num_rows * lanes.words() syndrome words for the lanes of `mask`
// (nullptr = all); `correct(syn, act)` applies the cycle's correction
// (including any pre-correction hooks, e.g. the exRec data-subblock
// recoveries).
template <typename Lanes, typename ExtractFn, typename CorrectFn>
void run_repeat_policy(Lanes& lanes, size_t num_rows, bool repeat,
                       const uint64_t* active, ExtractFn&& extract,
                       CorrectFn&& correct) {
  const size_t words = lanes.words();
  // One buffer: both readings, then the nontrivial and acting masks.
  std::vector<uint64_t> buffer((2 * num_rows + 2) * words);
  uint64_t* syn1 = buffer.data();
  uint64_t* syn2 = syn1 + num_rows * words;
  uint64_t* nontrivial = syn2 + num_rows * words;
  uint64_t* act = nontrivial + words;
  extract(active, syn1);
  batch_nontrivial_mask(syn1, num_rows, active, nontrivial, words);
  if (!lanes.any(nontrivial)) return;  // §3.4: no action
  if (repeat) {
    // Only the nontrivial lanes pay for (and can be hurt by) the repeat.
    extract(nontrivial, syn2);
    batch_agreement_mask(syn1, syn2, num_rows, nontrivial, act, words);
  } else {
    std::copy_n(nontrivial, words, act);
  }
  correct(syn1, act);
}

// Bit-sliced classical Hamming decode over 7 record/frame rows into `out`
// (words words). logical=true computes decode_logical (corrected-word
// parity); logical=false computes "any residual" (the word is not an
// even-weight Hamming codeword, i.e. nonzero coset weight).
void batch_decode_rows(const gf2::Hamming743& hamming,
                       const uint64_t* const rows[7], bool logical,
                       uint64_t* out, size_t words);

// Per-position decode masks from 3 bit-sliced syndrome rows (Eq. 3: bits
// (s0,s1,s2) spell the 1-based position s0*4 + s1*2 + s2). Fills pos_masks
// (7 * words words): lanes of `act_mask` whose syndrome points at each
// position. The union of the position masks is act_mask minus the
// trivial-syndrome lanes.
void batch_decode_positions(const uint64_t* syndrome_rows,
                            const uint64_t* act_mask, uint64_t* pos_masks,
                            size_t words);

// Calls visit(value, lanes) once per distinct syndrome value read by the
// lanes of `mask`: row i of `rows` holds the bit of the i-th generator of
// `group` (a generator bitmask), and `value` packs it at that generator's
// index. Each value's lanes are peeled off with word ops, so the cost grows
// with the number of distinct values, not with the number of lanes.
template <typename Visit>
void for_each_syndrome_value(uint64_t group, const uint64_t* rows,
                             const uint64_t* mask, size_t words,
                             Visit&& visit) {
  std::vector<uint64_t> rest(mask, mask + words), lanes(words);
  for (size_t w = 0; w < words; ++w) {
    while (rest[w] != 0) {
      // The value the first remaining lane reads, and every lane reading it.
      const int lane = __builtin_ctzll(rest[w]);
      std::copy(rest.begin(), rest.end(), lanes.begin());
      uint64_t value = 0;
      const uint64_t* bits = rows;
      for (uint64_t left = group; left != 0; left &= left - 1, bits += words) {
        if ((bits[w] >> lane) & 1u) {
          value |= uint64_t{1} << __builtin_ctzll(left);
          sim::simd::and_into(lanes.data(), bits, words);
        } else {
          sim::simd::andnot(lanes.data(), lanes.data(), bits, words);
        }
      }
      visit(value, lanes.data());
      sim::simd::andnot(rest.data(), rest.data(), lanes.data(), words);
    }
  }
}

// ORs `lanes` into the fix rows of every qubit where `correction` acts:
// row q of fix_x (fix_z) holds the lanes taking an X (Z) on data qubit q.
void batch_add_fix(const pauli::PauliString& correction, const uint64_t* lanes,
                   uint64_t* fix_x, uint64_t* fix_z, size_t words);

// A data-block fix on a lane engine — a one-layer Pauli circuit over the
// data block. On each data[q] in order: gate noise for the lanes that fix
// it, then the fix itself (X on the lanes of row q of fix_x, Z on those of
// fix_z; one side, not both, may be nullptr to fix nothing there — the
// noiseless reference never corrects). Then storage noise on the lanes of
// `act` that leave data[q] alone. Lanes outside `act` take no fault
// opportunity at all (§3.4 lanes that deferred, and lanes whose correction
// is the identity). Every data qubit gets its gate-noise call, so BatchLanes
// draws for it even when no lane fixes it.
template <typename Lanes>
void apply_fix(Lanes& lanes, std::span<const uint32_t> data,
               const uint64_t* fix_x, const uint64_t* fix_z,
               const uint64_t* act);

// Word-level logical verdict on a data block at qubits [0, n): writes into
// `out` (sim.num_words() words) the lanes whose residual frame is a logical
// error once each group's part of its syndrome is decoded and corrected.
// With one all-generator group this is LookupDecoder::residual_effect(r)
// .any() per lane; with a CSS code's two groups it is
// CatExtraction::logical_error. Syndrome and logical-parity words come from
// the frames, and each distinct syndrome value decodes once.
void batch_logical_errors(const sim::BatchFrameSim& sim,
                          const codes::LookupDecoder& decoder,
                          std::span<const uint64_t> groups, uint64_t* out);

// Executes an ideal gadget on all lanes of `sim`, applying the §6 noise
// hooks of ft::run_gadget (gate/prep/meas/storage) as per-lane random masks
// restricted to `lane_mask` (nullptr = every lane). Returns the indices of
// the record rows the gadget measured, in a list the runner owns. The record
// is cleared first, so the list and the rows from earlier gadgets do not
// survive a call — consume rows (or copy them out) before running the next
// gadget. The circuit must fit the sim's register, and every active qubit
// must lie in it.
//
// Unconditional unitaries run on EVERY lane: gadget circuits are
// frame-linear, so lanes whose gadget qubits carry no noise pass through
// unchanged, and masking the noise to the active lanes reproduces the
// serial per-shot branch exactly. That requires inactive lanes to enter
// with clean frames on the gadget's qubits — gadgets that start from R
// resets (all the prep circuits) or that follow an unmasked reset satisfy
// this by construction.
class BatchGadgetRunner {
 public:
  BatchGadgetRunner(sim::BatchFrameSim& sim, const sim::NoiseParams& noise);

  const std::vector<size_t>& run(const sim::Circuit& circuit,
                                 std::span<const uint32_t> active_qubits,
                                 const uint64_t* lane_mask);

  [[nodiscard]] sim::BatchFrameSim& sim() { return sim_; }
  [[nodiscard]] const sim::NoiseParams& noise() const { return noise_; }

 private:
  sim::BatchFrameSim& sim_;
  sim::NoiseParams noise_;
  std::vector<size_t> rows_;   // the last gadget's record rows
  std::vector<bool> touched_;  // per-layer storage-accounting scratch
};

// A retry budget without one attempt would skip the preparation; both lane
// engines reject it with this message.
inline constexpr const char* kRetryNeedsAnAttempt =
    "a preparation needs at least one attempt (max_cat_attempts >= 1, "
    "max_herald_retries >= 0)";

// The batched retry loop of an ancilla preparation — the §3.3 cat discard
// and the herald-triggered reinit of the Steane ancilla alike. Attempt k
// re-runs ONLY the lanes that failed attempts 0..k-1: later attempts replay
// the gadget's unitaries over the whole word (the prep's R resets make that
// safe for lanes with clean frames), so lanes that already passed park
// their block's frames in a side buffer while the stragglers retry and are
// restored afterwards — a scatter/compact over the handful of ancilla
// qubits instead of the whole register.
//
// Retry-cap semantics: the serial paths silently use the last preparation
// when the budget runs out. The batch path keeps those lanes' last-attempt
// frames (same statistics) but ALSO surfaces them in the sim's abort mask
// via discard_lanes, so a forced-failure pathology (e.g. a deliberately
// broken verification) cannot masquerade as a verified ancilla; at this
// library's noise scales the cap is unreachable and the mask stays empty.
class BatchCatRetry {
 public:
  explicit BatchCatRetry(sim::BatchFrameSim& sim);

  // At most `attempts` replays of `prep`; `block` names the qubits whose
  // frames carry the prepared state past the loop, and `active` (nullptr =
  // all) restricts the whole loop to the lanes whose shot is executing this
  // preparation. A lane fails an attempt when `check` is set and the prep's
  // one measurement (the §3.3 cat check) flips, or when `herald` is set and
  // any qubit of `block` carries a herald; with neither, the first attempt
  // passes. Returns the failed attempts summed over lanes (the serial
  // cats_discarded counter).
  uint64_t run(BatchGadgetRunner& gadgets, const sim::Circuit& prep,
               std::span<const uint32_t> block,
               std::span<const uint32_t> active_qubits, int attempts,
               bool check, bool herald, const uint64_t* active);

 private:
  sim::BatchFrameSim& sim_;
  std::vector<uint64_t> need_, passed_any_, failed_, scratch_;
  std::vector<uint64_t> parked_;  // [block qubit][x|z][word]
};

// Bit-parallel SteaneRecovery: the one Fig. 9 cycle (steane_cycle) on 64
// shots per word, replayed gadget by gadget on a BatchFrameSim through
// BatchLanes. Statistically equivalent to running `shots` independent
// SteaneRecovery instances under the same NoiseParams/RecoveryPolicy:
//
//  * the same ideal circuits (steane_circuits.h builders) drive every lane;
//  * the §6 noise hooks of ft::run_gadget (gate/prep/meas/storage) are
//    applied as per-lane random masks;
//  * per-shot control flow — syndrome repetition, the §3.3 verification fix,
//    and the final correction — becomes lane masking: gates of a
//    conditionally executed gadget are frame-linear, so lanes whose
//    ancillas carry no noise pass through it unchanged, and masking the
//    NOISE to the lanes that "really" execute the gadget reproduces the
//    serial branch exactly;
//  * Hamming decoding is bit-sliced: syndrome rows are XORs of measurement
//    record rows, and the corrected-parity logical readout is
//    parity(word) ^ (syndrome != 0), all word ops.
//
// Leakage is not representable in the bit-parallel engine; constructing with
// p_leak > 0 is an error. Use the serial SteaneRecovery for leakage studies.
class BatchSteaneRecovery {
 public:
  static constexpr uint32_t kNumQubits = 21;

  // shots is rounded up to a multiple of 64.
  BatchSteaneRecovery(const sim::NoiseParams& noise, RecoveryPolicy policy,
                      size_t shots, uint64_t seed);

  [[nodiscard]] size_t num_shots() const { return sim_.num_shots(); }
  [[nodiscard]] size_t num_words() const { return sim_.num_words(); }

  // Returns every lane to the all-clean state.
  void reset();

  // Injects a Pauli on a data qubit, every lane (error-channel input).
  void inject_data(uint32_t q, char pauli);
  // iid depolarizing channel on every data qubit, every lane.
  void apply_memory_noise(double p);

  // One full fault-tolerant recovery cycle (Fig. 9) across all lanes.
  void run_cycle();

  // Lanes (among the first `num_lanes`; SIZE_MAX = all) whose residual data
  // error defeats ideal decoding — the batch analogue of
  // SteaneRecovery::any_logical_error summed over shots.
  [[nodiscard]] uint64_t count_any_logical_error(
      size_t num_lanes = SIZE_MAX) const;
  // Lanes carrying any residual error (nonzero coset weight, X or Z side).
  [[nodiscard]] uint64_t count_residual(size_t num_lanes = SIZE_MAX) const;

  // Per-lane introspection for tests.
  [[nodiscard]] bool logical_x_error(size_t shot) const;
  [[nodiscard]] bool logical_z_error(size_t shot) const;
  [[nodiscard]] bool any_logical_error(size_t shot) const {
    return logical_x_error(shot) || logical_z_error(shot);
  }

  [[nodiscard]] sim::BatchFrameSim& frames() { return sim_; }

 private:
  // Shared body of count_any_logical_error / count_residual.
  uint64_t count_frames(bool logical, size_t num_lanes) const;

  sim::BatchFrameSim sim_;
  sim::NoiseParams noise_;
  RecoveryPolicy policy_;
  size_t words_;
};

}  // namespace ftqc::ft
