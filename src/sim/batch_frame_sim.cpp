#include "sim/batch_frame_sim.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "sim/simd.h"

namespace ftqc::sim {

BatchFrameSim::BatchFrameSim(size_t num_qubits, size_t shots, uint64_t seed)
    : n_(num_qubits),
      shots_((shots + 63) & ~size_t{63}),
      words_(shots_ / 64),
      frames_(2 * num_qubits * words_, 0),
      heralds_(num_qubits * words_, 0),
      record_(words_),
      abort_(words_, 0),
      hit_(words_, 0),
      hit_dirty_(words_ + 1, 0),
      rng_(seed) {}

void BatchFrameSim::clear() {
  std::fill(frames_.begin(), frames_.end(), 0);
  std::fill(heralds_.begin(), heralds_.end(), 0);
  std::fill(abort_.begin(), abort_.end(), 0);
  record_.clear();
}

void BatchFrameSim::clear_heralds() {
  std::fill(heralds_.begin(), heralds_.end(), 0);
}

void BatchFrameSim::clear_record() { record_.clear(); }

void BatchFrameSim::apply_h(size_t q) {
  simd::swap_words(x_word(q), z_word(q), words_);
}

void BatchFrameSim::apply_s(size_t q) {
  simd::xor_into(z_word(q), x_word(q), words_);
}

void BatchFrameSim::apply_cx(size_t control, size_t target) {
  simd::xor2_into(x_word(target), x_word(control), z_word(control),
                  z_word(target), words_);
}

void BatchFrameSim::apply_cz(size_t a, size_t b) {
  simd::xor2_into(z_word(b), x_word(a), z_word(a), x_word(b), words_);
}

void BatchFrameSim::apply_swap(size_t a, size_t b) {
  simd::swap_words(x_word(a), x_word(b), words_);
  simd::swap_words(z_word(a), z_word(b), words_);
}

void BatchFrameSim::refill_skip_log() {
  // 1-u is uniform in (0, 1], exactly the log_unit kernel's domain. The
  // tiny rounding difference vs log1p(-u) only matters where the skip is
  // ~0 anyway; the skip distribution is unchanged to ~1e-10 relative.
  // Draw through a local copy of the generator: the tight loop then keeps
  // the xoshiro state in registers instead of round-tripping four members
  // through memory per draw. Same stream, same results.
  Rng rng = rng_;
  for (size_t i = 0; i < kFillBlock; ++i) {
    skip_log_[i] = 1.0 - rng.next_double();
  }
  rng_ = rng;
  simd::log_unit(skip_log_.data(), kFillBlock);
  skip_pos_ = 0;
}

BatchFrameSim::HitWords BatchFrameSim::fill_hit_words(double p) {
  if (p <= 0) return {};
  // Undo the previous fill: only the words it actually set. At the sparse p
  // this library simulates (1e-5..1e-2) that is a handful of words, where a
  // whole-buffer std::fill used to dominate the channel cost.
  if (hit_dense_) {
    std::fill(hit_.begin(), hit_.end(), 0);
    hit_dense_ = false;
  } else {
    for (size_t i = 0; i < hit_dirty_len_; ++i) hit_[hit_dirty_[i]] = 0;
  }
  hit_dirty_len_ = 0;
  if (p >= 1) {
    std::fill(hit_.begin(), hit_.end(), ~uint64_t{0});
    hit_dense_ = true;
    return {hit_.data(), nullptr, 0, true};
  }
  // Drivers call the channels at a handful of distinct rates, so the log1p
  // and the division are paid only when the rate changes. A NaN rate slips
  // past both guards above and would walk forever; NaN != NaN sends it here.
  if (p != skip_p_) {
    FTQC_CHECK(!std::isnan(p), "fill_hit_words: probability is NaN");
    skip_p_ = p;
    skip_inv_ = 1.0 / std::log1p(-p);
  }
  // Sample the set-bit positions via geometric skipping over the whole shot
  // register: one skip per hit plus the one that overshoots the register,
  // not one per word and not one per bit. The cache is consumed with all
  // loop state in locals — calling the out-of-line refill from inside the
  // hot loop would force the members to be reloaded on every iteration.
  // Each skip length is converted where the walk consumes it, so a call
  // converts exactly the logs it uses, whatever rate came before. The
  // conversion reads only its log, not the running position, so the
  // loop-carried chain stays one integer add per hit.
  const double inv = skip_inv_;
  const auto total = static_cast<int64_t>(shots_);
  const double* const logs = skip_log_.data();
  uint64_t* const hit = hit_.data();
  uint32_t* const dirty = hit_dirty_.data();
  size_t ndirty = 0;
  uint32_t last = ~uint32_t{0};
  int64_t position = -1;  // the skip's +1 makes the first one start at 0
  for (;;) {
    if (skip_pos_ == kFillBlock) refill_skip_log();
    size_t i = skip_pos_;
    while (i < kFillBlock) {
      position += skip_length(logs[i++], inv);
      if (position >= total) break;
      const auto bit = static_cast<uint64_t>(position);
      const auto word = static_cast<uint32_t>(bit >> 6);
      hit[word] |= uint64_t{1} << (bit & 63);
      // Branchless dirty append: at dense p consecutive hits often share a
      // word and a conditional push mispredicts ~25% of the time there.
      dirty[ndirty] = word;  // positions ascend, so words ascend too
      ndirty += word != last ? 1 : 0;
      last = word;
    }
    skip_pos_ = i;
    if (position >= total) break;
  }
  hit_dirty_len_ = ndirty;
  if (ndirty == 0) return {};
  return {hit, dirty, ndirty, false};
}

void BatchFrameSim::depolarize1(size_t q, double p, const uint64_t* lane_mask) {
  const HitWords hits = fill_hit_words(p);
  if (!hits) return;
  uint64_t* xs = x_word(q);
  uint64_t* zs = z_word(q);
  Rng rng = rng_;  // register-resident draws in the hot loop (same stream)
  const auto flavor_word = [&](size_t w) {
    uint64_t pending = hits.bits[w];
    if (lane_mask != nullptr) pending &= lane_mask[w];
    // Draw the X/Y/Z flavor for every hit lane of this word at once: two
    // random bitplanes spell one of four outcomes per lane, the all-ones
    // pair is rejected and redrawn, so X, Y and Z stay exactly equiprobable
    // at ~2.7 word draws per word instead of one Lemire draw per hit lane.
    while (pending != 0) {
      const uint64_t a = rng.next_u64();
      const uint64_t b = rng.next_u64();
      const uint64_t valid = pending & ~(a & b);
      xs[w] ^= valid & ~a;       // a=0: X (b=0) or Y (b=1) flips the X frame
      zs[w] ^= valid & (a ^ b);  // Y (01) and Z (10) flip the Z frame
      pending &= ~valid;
    }
  };
  if (hits.dense) {
    for (size_t w = 0; w < words_; ++w) flavor_word(w);
  } else {
    // The dirty list is known up front, so prefetch the frame words a few
    // hits ahead: at large shot counts each row is tens of KB and the
    // random-word touches otherwise serialize on cache misses.
    for (size_t i = 0; i < hits.num_dirty; ++i) {
      if (i + 4 < hits.num_dirty) {
        const uint32_t pw = hits.dirty[i + 4];
        __builtin_prefetch(&xs[pw], 1);
        __builtin_prefetch(&zs[pw], 1);
      }
      flavor_word(hits.dirty[i]);
    }
  }
  rng_ = rng;
}

void BatchFrameSim::depolarize2(size_t a, size_t b, double p,
                                const uint64_t* lane_mask) {
  const HitWords hits = fill_hit_words(p);
  if (!hits) return;
  uint64_t* xa = x_word(a);
  uint64_t* za = z_word(a);
  uint64_t* xb = x_word(b);
  uint64_t* zb = z_word(b);
  Rng rng = rng_;  // register-resident draws in the hot loop (same stream)
  const auto flavor_word = [&](size_t w) {
    uint64_t pending = hits.bits[w];
    if (lane_mask != nullptr) pending &= lane_mask[w];
    // Four random bitplanes pick one of the 16 two-qubit Paulis per lane;
    // rejecting the all-zero (identity) plane leaves the 15 non-identity
    // flavors exactly equiprobable, drawn word-wide instead of per lane.
    while (pending != 0) {
      const uint64_t rxa = rng.next_u64();
      const uint64_t rza = rng.next_u64();
      const uint64_t rxb = rng.next_u64();
      const uint64_t rzb = rng.next_u64();
      const uint64_t valid = pending & (rxa | rza | rxb | rzb);
      xa[w] ^= valid & rxa;
      za[w] ^= valid & rza;
      xb[w] ^= valid & rxb;
      zb[w] ^= valid & rzb;
      pending &= ~valid;
    }
  };
  if (hits.dense) {
    for (size_t w = 0; w < words_; ++w) flavor_word(w);
  } else {
    for (size_t i = 0; i < hits.num_dirty; ++i) {
      if (i + 4 < hits.num_dirty) {
        const uint32_t pw = hits.dirty[i + 4];
        __builtin_prefetch(&xa[pw], 1);
        __builtin_prefetch(&za[pw], 1);
        __builtin_prefetch(&xb[pw], 1);
        __builtin_prefetch(&zb[pw], 1);
      }
      flavor_word(hits.dirty[i]);
    }
  }
  rng_ = rng;
}

void BatchFrameSim::x_error(size_t q, double p, const uint64_t* lane_mask) {
  const HitWords hits = fill_hit_words(p);
  if (!hits) return;
  uint64_t* xs = x_word(q);
  if (hits.dense) {
    if (lane_mask != nullptr) {
      simd::xor_masked_into(xs, hits.bits, lane_mask, words_);
    } else {
      simd::xor_into(xs, hits.bits, words_);
    }
    return;
  }
  for (size_t i = 0; i < hits.num_dirty; ++i) {
    if (i + 8 < hits.num_dirty) __builtin_prefetch(&xs[hits.dirty[i + 8]], 1);
    const uint32_t w = hits.dirty[i];
    xs[w] ^= lane_mask != nullptr ? hits.bits[w] & lane_mask[w] : hits.bits[w];
  }
}

void BatchFrameSim::y_error(size_t q, double p, const uint64_t* lane_mask) {
  const HitWords hits = fill_hit_words(p);
  if (!hits) return;
  uint64_t* xs = x_word(q);
  uint64_t* zs = z_word(q);
  if (hits.dense) {
    if (lane_mask != nullptr) {
      simd::xor_masked_into(xs, hits.bits, lane_mask, words_);
      simd::xor_masked_into(zs, hits.bits, lane_mask, words_);
    } else {
      simd::xor_into(xs, hits.bits, words_);
      simd::xor_into(zs, hits.bits, words_);
    }
    return;
  }
  for (size_t i = 0; i < hits.num_dirty; ++i) {
    if (i + 8 < hits.num_dirty) {
      const uint32_t pw = hits.dirty[i + 8];
      __builtin_prefetch(&xs[pw], 1);
      __builtin_prefetch(&zs[pw], 1);
    }
    const uint32_t w = hits.dirty[i];
    const uint64_t hit =
        lane_mask != nullptr ? hits.bits[w] & lane_mask[w] : hits.bits[w];
    xs[w] ^= hit;
    zs[w] ^= hit;
  }
}

void BatchFrameSim::z_error(size_t q, double p, const uint64_t* lane_mask) {
  const HitWords hits = fill_hit_words(p);
  if (!hits) return;
  uint64_t* zs = z_word(q);
  if (hits.dense) {
    if (lane_mask != nullptr) {
      simd::xor_masked_into(zs, hits.bits, lane_mask, words_);
    } else {
      simd::xor_into(zs, hits.bits, words_);
    }
    return;
  }
  for (size_t i = 0; i < hits.num_dirty; ++i) {
    if (i + 8 < hits.num_dirty) __builtin_prefetch(&zs[hits.dirty[i + 8]], 1);
    const uint32_t w = hits.dirty[i];
    zs[w] ^= lane_mask != nullptr ? hits.bits[w] & lane_mask[w] : hits.bits[w];
  }
}

void BatchFrameSim::pauli_channel1(size_t q, double px, double py, double pz,
                                   const uint64_t* lane_mask) {
  const double total = px + py + pz;
  const HitWords hits = fill_hit_words(total);
  if (!hits) return;
  const double fx = px / total;
  const double fy = py / total;
  uint64_t* xs = x_word(q);
  uint64_t* zs = z_word(q);
  Rng rng = rng_;  // register-resident draws in the hot loop (same stream)
  // Per-hit-lane axis draw: the bias fractions are arbitrary doubles, so
  // (unlike the equiprobable depolarize) there is no exact word-wide
  // bitplane trick — but hits are O(shots * p), so per-hit draws cost what
  // the fill already does.
  const auto flavor_word = [&](size_t w) {
    uint64_t pending = hits.bits[w];
    if (lane_mask != nullptr) pending &= lane_mask[w];
    while (pending != 0) {
      const uint64_t lane = uint64_t{1} << __builtin_ctzll(pending);
      pending &= pending - 1;
      const double u = rng.next_double();
      if (u < fx) {
        xs[w] ^= lane;
      } else if (u < fx + fy) {
        xs[w] ^= lane;
        zs[w] ^= lane;
      } else {
        zs[w] ^= lane;
      }
    }
  };
  if (hits.dense) {
    for (size_t w = 0; w < words_; ++w) flavor_word(w);
  } else {
    for (size_t i = 0; i < hits.num_dirty; ++i) flavor_word(hits.dirty[i]);
  }
  rng_ = rng;
}

void BatchFrameSim::pauli_channel2(size_t a, size_t b, double p, double fx,
                                   double fy, const uint64_t* lane_mask) {
  const HitWords hits = fill_hit_words(p);
  if (!hits) return;
  uint64_t* xa = x_word(a);
  uint64_t* za = z_word(a);
  uint64_t* xb = x_word(b);
  uint64_t* zb = z_word(b);
  const double wx = 3.0 * fx;
  const double wy = 3.0 * fy;
  Rng rng = rng_;
  // Same conditioned product draw as FrameSim::pauli_channel2, per hit lane.
  const auto draw_code = [&]() -> uint64_t {
    const double u = rng.next_double() * 4.0;
    if (u < 1.0) return 0;
    if (u < 1.0 + wx) return 1;
    if (u < 1.0 + wx + wy) return 3;
    return 2;
  };
  const auto flavor_word = [&](size_t w) {
    uint64_t pending = hits.bits[w];
    if (lane_mask != nullptr) pending &= lane_mask[w];
    while (pending != 0) {
      const uint64_t lane = uint64_t{1} << __builtin_ctzll(pending);
      pending &= pending - 1;
      uint64_t ca = 0, cb = 0;
      do {
        ca = draw_code();
        cb = draw_code();
      } while (ca == 0 && cb == 0);
      if (ca & 1) xa[w] ^= lane;
      if (ca & 2) za[w] ^= lane;
      if (cb & 1) xb[w] ^= lane;
      if (cb & 2) zb[w] ^= lane;
    }
  };
  if (hits.dense) {
    for (size_t w = 0; w < words_; ++w) flavor_word(w);
  } else {
    for (size_t i = 0; i < hits.num_dirty; ++i) flavor_word(hits.dirty[i]);
  }
  rng_ = rng;
}

void BatchFrameSim::erase_error(size_t q, double p, const uint64_t* lane_mask) {
  const HitWords hits = fill_hit_words(p);
  if (!hits) return;
  uint64_t* xs = x_word(q);
  uint64_t* zs = z_word(q);
  uint64_t* hs = herald_word_mut(q);
  Rng rng = rng_;
  // Reset-to-mixed per hit lane: herald bit set, frame bits REPLACED by
  // fresh uniform random (not XORed — the twirl forgets the old frame).
  // Two word draws per dirty word cover all 64 lanes at once.
  const auto erase_word = [&](size_t w) {
    uint64_t hit = hits.bits[w];
    if (lane_mask != nullptr) hit &= lane_mask[w];
    if (hit == 0) return;
    hs[w] |= hit;
    const uint64_t rx = rng.next_u64();
    const uint64_t rz = rng.next_u64();
    xs[w] = (xs[w] & ~hit) | (rx & hit);
    zs[w] = (zs[w] & ~hit) | (rz & hit);
  };
  if (hits.dense) {
    for (size_t w = 0; w < words_; ++w) erase_word(w);
  } else {
    for (size_t i = 0; i < hits.num_dirty; ++i) erase_word(hits.dirty[i]);
  }
  rng_ = rng;
}

void BatchFrameSim::mark_erased_masked(size_t q, const uint64_t* lane_mask) {
  simd::or_into(herald_word_mut(q), lane_mask, words_);
}

void BatchFrameSim::inject_x(size_t q) {
  uint64_t* xs = x_word(q);
  for (size_t w = 0; w < words_; ++w) xs[w] ^= ~uint64_t{0};
}

void BatchFrameSim::inject_y(size_t q) {
  uint64_t* xs = x_word(q);
  uint64_t* zs = z_word(q);
  for (size_t w = 0; w < words_; ++w) {
    xs[w] ^= ~uint64_t{0};
    zs[w] ^= ~uint64_t{0};
  }
}

void BatchFrameSim::inject_z(size_t q) {
  uint64_t* zs = z_word(q);
  for (size_t w = 0; w < words_; ++w) zs[w] ^= ~uint64_t{0};
}

void BatchFrameSim::inject_x_masked(size_t q, const uint64_t* lane_mask) {
  simd::xor_into(x_word(q), lane_mask, words_);
}

void BatchFrameSim::inject_y_masked(size_t q, const uint64_t* lane_mask) {
  simd::xor_into(x_word(q), lane_mask, words_);
  simd::xor_into(z_word(q), lane_mask, words_);
}

void BatchFrameSim::inject_z_masked(size_t q, const uint64_t* lane_mask) {
  simd::xor_into(z_word(q), lane_mask, words_);
}

void BatchFrameSim::randomize_gauge(uint64_t* component) {
  Rng rng = rng_;  // register-resident draws in the hot loop (same stream)
  for (size_t w = 0; w < words_; ++w) component[w] ^= rng.next_u64();
  rng_ = rng;
}

size_t BatchFrameSim::measure_z(size_t q) {
  record_.append_row(x_word(q));
  // Collapse gauge: the post-measurement Z frame is unobservable. One fresh
  // random bit per lane (FrameSim draws one bit per shot).
  randomize_gauge(z_word(q));
  return record_.size() - 1;
}

size_t BatchFrameSim::measure_x(size_t q) {
  record_.append_row(z_word(q));
  randomize_gauge(x_word(q));
  return record_.size() - 1;
}

size_t BatchFrameSim::measure_reset(size_t q) {
  record_.append_row(x_word(q));
  reset(q);
  return record_.size() - 1;
}

void BatchFrameSim::reset(size_t q) {
  std::fill_n(x_word(q), words_, 0);
  std::fill_n(z_word(q), words_, 0);
  // A freshly prepared qubit is not erased: prep-circuit R gates clear the
  // herald plane, which is what lets retry loops re-arm lanes in place.
  std::fill_n(herald_word_mut(q), words_, 0);
}

void BatchFrameSim::classical_x(size_t q, size_t record_index) {
  inject_x_masked(q, record_.row(record_index));
}

void BatchFrameSim::classical_y(size_t q, size_t record_index) {
  inject_y_masked(q, record_.row(record_index));
}

void BatchFrameSim::classical_z(size_t q, size_t record_index) {
  inject_z_masked(q, record_.row(record_index));
}

void BatchFrameSim::discard_where(size_t record_index, bool value) {
  const uint64_t* row = record_.row(record_index);
  if (value) {
    simd::or_into(abort_.data(), row, words_);
  } else {
    simd::or_not_into(abort_.data(), row, words_);
  }
}

void BatchFrameSim::discard_lanes(const uint64_t* lane_mask) {
  simd::or_into(abort_.data(), lane_mask, words_);
}

size_t BatchFrameSim::num_kept() const {
  size_t discarded = 0;
  for (uint64_t w : abort_) discarded += __builtin_popcountll(w);
  return shots_ - discarded;
}

void BatchFrameSim::run(const Circuit& circuit) {
  FTQC_CHECK(circuit.num_qubits() <= n_, "circuit larger than frame register");
  const size_t record_base = record_.size();
  const auto cond_row = [&](const Operation& op) -> size_t {
    const size_t row = record_base + static_cast<size_t>(op.cond);
    FTQC_CHECK(row < record_.size(),
               "conditional references future measurement");
    return row;
  };
  for (const Operation& op : circuit.ops()) {
    if (op.cond >= 0) {
      // Only Pauli feedforward can be bit-sliced: a conditional Clifford
      // would need a different frame map per lane.
      switch (op.gate) {
        case Gate::X: classical_x(op.targets[0], cond_row(op)); continue;
        case Gate::Y: classical_y(op.targets[0], cond_row(op)); continue;
        case Gate::Z: classical_z(op.targets[0], cond_row(op)); continue;
        default:
          FTQC_CHECK(false,
                     std::string("BatchFrameSim feedforward supports only "
                                 "Pauli corrections, got ") +
                         gate_name(op.gate));
      }
    }
    switch (op.gate) {
      case Gate::I:
      case Gate::TICK:
        break;
      case Gate::X:
      case Gate::Y:
      case Gate::Z:
        break;  // deterministic Paulis shift the reference, not the frame
      case Gate::H: apply_h(op.targets[0]); break;
      case Gate::S:
      case Gate::S_DAG: apply_s(op.targets[0]); break;
      case Gate::CX: apply_cx(op.targets[0], op.targets[1]); break;
      case Gate::CZ: apply_cz(op.targets[0], op.targets[1]); break;
      case Gate::SWAP: apply_swap(op.targets[0], op.targets[1]); break;
      case Gate::M: measure_z(op.targets[0]); break;
      case Gate::MX: measure_x(op.targets[0]); break;
      case Gate::MR: measure_reset(op.targets[0]); break;
      case Gate::R: reset(op.targets[0]); break;
      case Gate::DEPOLARIZE1: depolarize1(op.targets[0], op.arg); break;
      case Gate::DEPOLARIZE2:
        depolarize2(op.targets[0], op.targets[1], op.arg);
        break;
      case Gate::X_ERROR: x_error(op.targets[0], op.arg); break;
      case Gate::Y_ERROR: y_error(op.targets[0], op.arg); break;
      case Gate::Z_ERROR: z_error(op.targets[0], op.arg); break;
      case Gate::PAULI_CHANNEL1:
        pauli_channel1(op.targets[0], op.arg, op.arg2, op.arg3);
        break;
      case Gate::PAULI_CHANNEL2:
        pauli_channel2(op.targets[0], op.targets[1], op.arg, op.arg2,
                       op.arg3);
        break;
      case Gate::ERASE: erase_error(op.targets[0], op.arg); break;
      // Injections flip (not set) the frame, matching FrameSim::inject_*:
      // two injections of the same Pauli cancel.
      case Gate::INJECT_X: inject_x(op.targets[0]); break;
      case Gate::INJECT_Y: inject_y(op.targets[0]); break;
      case Gate::INJECT_Z: inject_z(op.targets[0]); break;
      default:
        FTQC_CHECK(false, std::string("BatchFrameSim cannot run gate ") +
                              gate_name(op.gate));
    }
  }
}

}  // namespace ftqc::sim
