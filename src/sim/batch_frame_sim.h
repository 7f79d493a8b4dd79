#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sim/circuit.h"

namespace ftqc::sim {

// Word-packed measurement record: one row per recorded measurement, 64 shots
// per word. Rows hold outcome *flips* relative to the noiseless reference run
// (the same flip semantics as FrameSim's record).
class BatchRecord {
 public:
  BatchRecord() = default;
  explicit BatchRecord(size_t words_per_row) : words_(words_per_row) {}

  [[nodiscard]] size_t size() const {
    return words_ == 0 ? 0 : bits_.size() / words_;
  }
  [[nodiscard]] size_t num_words() const { return words_; }

  [[nodiscard]] const uint64_t* row(size_t m) const {
    FTQC_DCHECK(m < size(), "record row out of range");
    return &bits_[m * words_];
  }
  [[nodiscard]] bool bit(size_t m, size_t shot) const {
    return (row(m)[shot >> 6] >> (shot & 63)) & 1u;
  }

  // Appends one row copied from `src` (words_per_row words).
  void append_row(const uint64_t* src) {
    bits_.insert(bits_.end(), src, src + words_);
  }
  void clear() { bits_.clear(); }

 private:
  size_t words_ = 0;
  std::vector<uint64_t> bits_;
};

// Bit-parallel Pauli-frame sampler: 64 independent shots advance per word
// operation. Qubit-major layout (one x-word and one z-word per qubit per
// 64-shot block) keeps every gate a handful of word ops — the same design
// trade Stim makes, sized for this library's block codes.
//
// Unlike the original straight-line-only version, this engine now replays
// full gadgets: M/MX/MR/R append word-packed rows to a measurement record
// (with the post-measurement gauge randomization FrameSim does), classical
// feedforward is bit-sliced (conditional Pauli corrections keyed on record
// rows), and per-shot postselection accumulates into an abort mask. Every
// stochastic channel takes an optional per-lane mask so drivers can model
// per-shot control flow (lanes that skipped a gadget must not collect its
// faults). Non-Pauli conditional gates remain unsupported: they cannot be
// bit-sliced.
class BatchFrameSim {
 public:
  // shots is rounded up to a multiple of 64.
  BatchFrameSim(size_t num_qubits, size_t shots, uint64_t seed = 1);

  [[nodiscard]] size_t num_qubits() const { return n_; }
  [[nodiscard]] size_t num_shots() const { return shots_; }
  [[nodiscard]] size_t num_words() const { return words_; }

  // Zeroes frames, the record, and the abort mask.
  void clear();
  // Drops recorded rows only (frames keep evolving); invalidates indices
  // previously returned by the measurement methods.
  void clear_record();

  void apply_h(size_t q);
  void apply_s(size_t q);
  void apply_cx(size_t control, size_t target);
  void apply_cz(size_t a, size_t b);
  void apply_swap(size_t a, size_t b);

  // Stochastic channels. `lane_mask` (words() words), when non-null,
  // restricts the error to the lanes whose bit is set — the bit-sliced
  // equivalent of "this shot did not execute the faulty gate".
  void depolarize1(size_t q, double p, const uint64_t* lane_mask = nullptr);
  void depolarize2(size_t a, size_t b, double p,
                   const uint64_t* lane_mask = nullptr);
  void x_error(size_t q, double p, const uint64_t* lane_mask = nullptr);
  void y_error(size_t q, double p, const uint64_t* lane_mask = nullptr);
  void z_error(size_t q, double p, const uint64_t* lane_mask = nullptr);
  // Biased Pauli channels (Gate::PAULI_CHANNEL1/2): same parameterization
  // as FrameSim's — px/py/pz per axis, and (p, fx, fy) for the conditioned
  // two-qubit product draw.
  void pauli_channel1(size_t q, double px, double py, double pz,
                      const uint64_t* lane_mask = nullptr);
  void pauli_channel2(size_t a, size_t b, double p, double fx, double fy,
                      const uint64_t* lane_mask = nullptr);

  // --- Heralded erasure ----------------------------------------------------
  // Per-lane erasure at rate p: hit lanes get their herald bit set and their
  // frame words replaced by fresh uniform random bits (reset-to-mixed).
  // Erasure does NOT gate subsequent word ops — unlike leakage, all 64
  // lanes keep advancing per word, which is why the batch engine supports
  // it at full width.
  void erase_error(size_t q, double p, const uint64_t* lane_mask = nullptr);
  // Deterministic herald-only injection (no frame change, no RNG): the
  // cross-engine tests pin herald planes bit for bit through this.
  void mark_erased_masked(size_t q, const uint64_t* lane_mask);
  // Herald bitplane for qubit q (words() words, 1 = erased since the last
  // reset of that lane's qubit / clear_heralds()).
  [[nodiscard]] const uint64_t* herald_word(size_t q) const {
    FTQC_DCHECK(q < n_, "qubit index out of range");
    return &heralds_[q * words_];
  }
  [[nodiscard]] bool heralded(size_t q, size_t shot) const {
    return (herald_word(q)[shot >> 6] >> (shot & 63)) & 1u;
  }
  void clear_heralds();

  // Deterministic frame flips on every lane (flip semantics: two injections
  // of the same Pauli cancel, matching FrameSim::inject_*).
  void inject_x(size_t q);
  void inject_y(size_t q);
  void inject_z(size_t q);
  // Masked variants: flip only the lanes set in `lane_mask` — the bit-sliced
  // form of a per-shot conditional correction.
  void inject_x_masked(size_t q, const uint64_t* lane_mask);
  void inject_y_masked(size_t q, const uint64_t* lane_mask);
  void inject_z_masked(size_t q, const uint64_t* lane_mask);

  // --- Measurement / reset (flip semantics, all lanes at once) ------------
  // Each measurement appends one row to record() and returns its row index.
  // measure_z/measure_x inject a fresh random gauge on the collapsed
  // component per lane (the standard frame-sampler trick; see FrameSim).
  size_t measure_z(size_t q);
  size_t measure_x(size_t q);
  // Measure Z then reset to |0> (no gauge needed: the frame is cleared).
  size_t measure_reset(size_t q);
  void reset(size_t q);

  [[nodiscard]] const BatchRecord& record() const { return record_; }

  // --- Classical feedforward ----------------------------------------------
  // Applies a Pauli on the lanes where record row `record_index` is 1. The
  // noiseless reference (whose record is all-zero) never fires the
  // conditional, so in flip space the correction simply XORs the record row
  // into the frame.
  void classical_x(size_t q, size_t record_index);
  void classical_y(size_t q, size_t record_index);
  void classical_z(size_t q, size_t record_index);

  // --- Postselection / abort ----------------------------------------------
  // Marks as aborted every lane whose record bit equals `value` (e.g. a
  // failed verification measurement). Aborts accumulate until clear().
  void discard_where(size_t record_index, bool value);
  // ORs an arbitrary lane mask into the abort mask. Drivers with per-lane
  // control flow (batched cat-retry loops) use this to surface lanes whose
  // retry budget ran out without a verified ancilla.
  void discard_lanes(const uint64_t* lane_mask);
  [[nodiscard]] const uint64_t* abort_mask() const { return abort_.data(); }
  [[nodiscard]] bool aborted(size_t shot) const {
    return (abort_[shot >> 6] >> (shot & 63)) & 1u;
  }
  // Lanes that survived every discard_where so far.
  [[nodiscard]] size_t num_kept() const;

  // Measurement flip masks for all shots (64 shots per word).
  [[nodiscard]] const uint64_t* x_flips(size_t q) const { return x_word(q); }
  [[nodiscard]] const uint64_t* z_flips(size_t q) const { return z_word(q); }
  [[nodiscard]] bool x_flip(size_t q, size_t shot) const {
    return (x_word(q)[shot >> 6] >> (shot & 63)) & 1u;
  }
  [[nodiscard]] bool z_flip(size_t q, size_t shot) const {
    return (z_word(q)[shot >> 6] >> (shot & 63)) & 1u;
  }

  // Executes a circuit with full gadget replay: unitaries, channels,
  // measurements (recorded), resets, and measurement-conditioned Pauli
  // corrections. Conditional non-Pauli gates are rejected. Measurement rows
  // append to record() in circuit order starting at the current record size.
  void run(const Circuit& circuit);

  Rng& rng() { return rng_; }

  // Result of one stochastic hit-word fill. `bits` is the shared scratch
  // buffer (valid until the next fill); nullptr means no lane was hit and the
  // channel is a no-op. When `dense` (p >= 1) every word is all-ones;
  // otherwise `dirty` lists the ascending indices of the (typically few)
  // nonzero words so channels touch O(hits) words instead of O(words_).
  struct HitWords {
    const uint64_t* bits = nullptr;
    const uint32_t* dirty = nullptr;
    size_t num_dirty = 0;
    bool dense = false;
    explicit operator bool() const { return bits != nullptr; }
  };
  // Fills the reusable hit buffer with bits set iid with probability p,
  // running ONE geometric-skip stream across the whole 64*num_words() bit
  // register (instead of restarting the stream per word, which costs a
  // log1p division per word even when no bit lands there).
  //
  // Cost model: O(hits) plus a small per-call constant. A call consumes
  // hits + 1 skip logarithms and converts each to a skip length as it walks
  // (skip_length), re-zeroes only the words the previous fill dirtied, and
  // recomputes 1/log1p(-p) only when p differs from the previous call's.
  // p <= 0 is free: it returns at once and draws nothing. p >= 1 sets every
  // word without drawing. A NaN p fails an FTQC_CHECK.
  //
  // Public for the kernel benchmark breakdown and the fill regression test;
  // callers other than the channels must not hold the returned pointers
  // across fills.
  HitWords fill_hit_words(double p);

  // Uniform draws per refill of the skip-logarithm cache. The fill
  // regression test mirrors this draw order exactly; change the two
  // together.
  static constexpr size_t kFillBlock = 256;

  // The geometric skip 1 + floor(log * inv) of one cached logarithm at the
  // rate whose 1/log1p(-p) is `inv`. A fill's products are >= 0 (log <= 0,
  // inv < 0), where the truncating conversion is the exact floor, with no
  // libm call. Products from 2^62 up saturate there, far past any register,
  // so the walk stops on them just as it would on the exact length.
  [[nodiscard]] static int64_t skip_length(double log, double inv) {
    constexpr double kCap = 0x1p62;
    const double x = log * inv;
    return 1 + static_cast<int64_t>(x < kCap ? x : kCap);
  }

 private:
  // Every per-qubit entry point reaches the frames and heralds through these
  // accessors, which check the index as FrameSim's gates do (FTQC_DCHECK).
  [[nodiscard]] uint64_t* x_word(size_t q) {
    FTQC_DCHECK(q < n_, "qubit index out of range");
    return &frames_[2 * q * words_];
  }
  [[nodiscard]] const uint64_t* x_word(size_t q) const {
    FTQC_DCHECK(q < n_, "qubit index out of range");
    return &frames_[2 * q * words_];
  }
  [[nodiscard]] uint64_t* z_word(size_t q) {
    FTQC_DCHECK(q < n_, "qubit index out of range");
    return &frames_[(2 * q + 1) * words_];
  }
  [[nodiscard]] const uint64_t* z_word(size_t q) const {
    FTQC_DCHECK(q < n_, "qubit index out of range");
    return &frames_[(2 * q + 1) * words_];
  }

  void randomize_gauge(uint64_t* component);

  // Refills skip_log_ with kFillBlock values log(1-u), u ~ U[0,1). The
  // geometric skip divides each by log1p(-p), and the log is p-independent
  // — so the draws are taken and transformed a block at a time through the
  // simd::log_unit kernel (the one-at-a-time version chained every libm
  // call through the running position and was latency-bound), and leftovers
  // carry across channel calls with different p, wasting nothing.
  void refill_skip_log();

  [[nodiscard]] uint64_t* herald_word_mut(size_t q) {
    FTQC_DCHECK(q < n_, "qubit index out of range");
    return &heralds_[q * words_];
  }

  size_t n_;
  size_t shots_;
  size_t words_;
  std::vector<uint64_t> frames_;  // layout: [qubit][x|z][word]
  std::vector<uint64_t> heralds_;  // layout: [qubit][word], erasure heralds
  BatchRecord record_;
  std::vector<uint64_t> abort_;
  std::vector<uint64_t> hit_;        // scratch for fill_hit_words
  // Dirty-index scratch for fill_hit_words. Sized words_ + 1: the branchless
  // append writes slot ndirty before deciding whether to keep it, so a fill
  // that dirties every word still stores one (discarded) entry past the last
  // kept index.
  std::vector<uint32_t> hit_dirty_;
  size_t hit_dirty_len_ = 0;         // how many of them the last fill set
  bool hit_dense_ = false;           // last fill set every word (p >= 1)
  std::array<double, kFillBlock> skip_log_;  // precomputed log1p(-u) draws
  size_t skip_pos_ = kFillBlock;             // consumed prefix; == => refill
  double skip_p_ = 0.0;    // rate of the last sparse fill (0: none yet)
  double skip_inv_ = 0.0;  // 1 / log1p(-skip_p_)
  Rng rng_;
};

}  // namespace ftqc::sim
