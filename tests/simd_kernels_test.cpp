// Bit-exactness pins for the runtime-dispatched SIMD word kernels
// (sim/simd.h). The dispatch contract is that every kernel produces
// IDENTICAL output at every level — the vector paths process whole register
// groups plus a scalar tail — so a fixed-seed BatchFrameSim replay cannot
// depend on the host CPU. Each kernel is pinned scalar-vs-level across word
// counts that exercise the tails of both the 4-word (AVX2) and 8-word
// (AVX-512) groups, then the whole engine is pinned end to end through a
// noisy gadget, and the geometric-skip RNG fill is pinned against a
// draw-order mirror so its stream cannot silently change.
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "ft/batch_recovery.h"
#include "gf2/hamming.h"
#include "gtest/gtest.h"
#include "sim/batch_frame_sim.h"
#include "sim/simd.h"

namespace ftqc {
namespace {

namespace simd = sim::simd;

// Word counts straddling the vector-group boundaries: 1/3 (pure scalar
// tail), 4 (one AVX2 group), 5 (group + tail), 8 (one AVX-512 group / two
// AVX2 groups), 13 (groups + tail at both widths).
constexpr size_t kWordCounts[] = {1, 3, 4, 5, 8, 13};

std::vector<uint64_t> random_words(Rng& rng, size_t n) {
  std::vector<uint64_t> out(n);
  for (auto& w : out) w = rng.next_u64();
  return out;
}

// Restores the dispatch level active at test start, whatever the test
// forced in between.
class SimdKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override { initial_ = simd::active_level(); }
  void TearDown() override { simd::set_level(initial_); }

  // The levels this host can actually run (set_level clamps to CPU
  // support); always includes kScalar.
  static std::vector<simd::Level> levels() {
    std::vector<simd::Level> out{simd::Level::kScalar};
    for (const simd::Level lv : {simd::Level::kAvx2, simd::Level::kAvx512}) {
      if (simd::set_level(lv) == lv) out.push_back(lv);
    }
    return out;
  }

  // Runs `kernel()` once per level on identical inputs and checks every
  // level reproduces the scalar output. `kernel` must write its full output
  // into the vector it returns.
  template <typename Kernel>
  static void expect_level_invariant(const char* name, size_t words,
                                     Kernel&& kernel) {
    simd::set_level(simd::Level::kScalar);
    const std::vector<uint64_t> expected = kernel();
    for (const simd::Level lv : levels()) {
      simd::set_level(lv);
      EXPECT_EQ(kernel(), expected)
          << name << " diverges at level " << simd::level_name(lv) << ", "
          << words << " words";
    }
  }

 private:
  simd::Level initial_ = simd::Level::kScalar;
};

TEST_F(SimdKernelsTest, StreamingKernelsMatchScalarAcrossTails) {
  Rng rng(0xC0FFEE);
  for (const size_t words : kWordCounts) {
    const auto a = random_words(rng, words);
    const auto b = random_words(rng, words);
    const auto c = random_words(rng, words);
    const auto d = random_words(rng, words);

    expect_level_invariant("xor_into", words, [&] {
      auto dst = a;
      simd::xor_into(dst.data(), b.data(), words);
      return dst;
    });
    expect_level_invariant("xor_masked_into", words, [&] {
      auto dst = a;
      simd::xor_masked_into(dst.data(), b.data(), c.data(), words);
      return dst;
    });
    expect_level_invariant("xor2_into", words, [&] {
      auto d1 = a;
      auto d2 = b;
      simd::xor2_into(d1.data(), c.data(), d2.data(), d.data(), words);
      d1.insert(d1.end(), d2.begin(), d2.end());
      return d1;
    });
    expect_level_invariant("swap_words", words, [&] {
      auto x = a;
      auto y = b;
      simd::swap_words(x.data(), y.data(), words);
      x.insert(x.end(), y.begin(), y.end());
      return x;
    });
    expect_level_invariant("or_into", words, [&] {
      auto dst = a;
      simd::or_into(dst.data(), b.data(), words);
      return dst;
    });
    expect_level_invariant("or_not_into", words, [&] {
      auto dst = a;
      simd::or_not_into(dst.data(), b.data(), words);
      return dst;
    });
    expect_level_invariant("and_into", words, [&] {
      auto dst = a;
      simd::and_into(dst.data(), b.data(), words);
      return dst;
    });
    expect_level_invariant("and_eq_into", words, [&] {
      auto dst = a;
      simd::and_eq_into(dst.data(), b.data(), c.data(), words);
      return dst;
    });
    expect_level_invariant("andnot", words, [&] {
      std::vector<uint64_t> dst(words);
      simd::andnot(dst.data(), a.data(), b.data(), words);
      return dst;
    });
    expect_level_invariant("blend_into", words, [&] {
      auto dst = a;
      simd::blend_into(dst.data(), b.data(), c.data(), words);
      return dst;
    });
    expect_level_invariant("xor_and", words, [&] {
      std::vector<uint64_t> dst(words);
      simd::xor_and(dst.data(), a.data(), b.data(), c.data(), words);
      return dst;
    });
  }
}

TEST_F(SimdKernelsTest, Select3AndMatchesScalarForAllInversions) {
  Rng rng(0xBEEF);
  for (const size_t words : kWordCounts) {
    const auto act = random_words(rng, words);
    const auto s0 = random_words(rng, words);
    const auto s1 = random_words(rng, words);
    const auto s2 = random_words(rng, words);
    for (uint64_t value = 0; value <= 7; ++value) {
      const uint64_t i0 = (value & 4) ? 0 : ~uint64_t{0};
      const uint64_t i1 = (value & 2) ? 0 : ~uint64_t{0};
      const uint64_t i2 = (value & 1) ? 0 : ~uint64_t{0};
      expect_level_invariant("select3_and", words, [&] {
        std::vector<uint64_t> out(words);
        simd::select3_and(out.data(), act.data(), s0.data(), i0, s1.data(), i1,
                          s2.data(), i2, words);
        return out;
      });
    }
  }
}

TEST_F(SimdKernelsTest, Hamming7DecodeMatchesScalarInBothModes) {
  const gf2::Hamming743 hamming;
  Rng rng(0x5EED);
  for (const size_t words : kWordCounts) {
    std::vector<uint64_t> row_data = random_words(rng, 7 * words);
    const uint64_t* rows[7];
    for (size_t j = 0; j < 7; ++j) rows[j] = &row_data[j * words];
    for (const bool logical : {false, true}) {
      expect_level_invariant("hamming7_decode", words, [&] {
        std::vector<uint64_t> out(words);
        ft::batch_decode_rows(hamming, rows, logical, out.data(), words);
        return out;
      });
    }
  }
}

TEST_F(SimdKernelsTest, OrRowsMaskedMatchesScalarWithAndWithoutMask) {
  Rng rng(0xACE);
  for (const size_t words : kWordCounts) {
    for (const size_t num_rows : {size_t{1}, size_t{3}, size_t{6}}) {
      const auto rows = random_words(rng, num_rows * words);
      const auto active = random_words(rng, words);
      for (const bool masked : {false, true}) {
        expect_level_invariant("or_rows_masked", words, [&] {
          std::vector<uint64_t> out(words);
          simd::or_rows_masked(rows.data(), num_rows,
                               masked ? active.data() : nullptr, out.data(),
                               words);
          return out;
        });
      }
    }
  }
}

TEST_F(SimdKernelsTest, LogUnitIsElementwiseIdenticalAcrossLevels) {
  // The fill's skip logs must be BITWISE equal at every level, or the RNG
  // consumption (and so every downstream stream) would depend on the CPU.
  // Cover the full (0, 1] domain including the exact endpoints and
  // subnormal-adjacent tiny values, across vector-tail lengths.
  Rng rng(0xF00D);
  for (const size_t n : kWordCounts) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = 1.0 - rng.next_double();  // (0, 1]
    }
    values[0] = 1.0;
    if (n > 2) values[2] = 0x1.0p-900;
    simd::set_level(simd::Level::kScalar);
    auto expected = values;
    simd::log_unit(expected.data(), n);
    for (const simd::Level lv : levels()) {
      simd::set_level(lv);
      auto got = values;
      simd::log_unit(got.data(), n);
      ASSERT_EQ(std::memcmp(got.data(), expected.data(), n * sizeof(double)),
                0)
          << "log_unit diverges at level " << simd::level_name(lv) << ", " << n
          << " values";
    }
    // Sanity on top of equality: the values are actually logarithms.
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(expected[i], std::log(values[i]),
                  std::abs(std::log(values[i])) * 1e-10 + 1e-12);
    }
  }
}

// End to end: a noisy multi-qubit gadget replayed at forced-scalar and at
// the best supported level must produce identical frames, records, and
// abort masks — the engine-level statement of the per-kernel pins above.
TEST_F(SimdKernelsTest, NoisyBatchGadgetIsBitIdenticalAcrossLevels) {
  constexpr size_t kQubits = 7;
  constexpr size_t kShots = 5 * 64;  // 5 words: AVX2 group + tail
  struct Capture {
    std::vector<uint64_t> frames;
    std::vector<uint64_t> record;
    std::vector<uint64_t> abort;
  };
  const auto run = [&] {
    sim::BatchFrameSim sim(kQubits, kShots, /*seed=*/4242);
    std::vector<uint64_t> mask(sim.num_words(), 0xAAAAAAAAAAAAAAAAull);
    for (size_t q = 0; q < kQubits; ++q) {
      sim.apply_h(q);
      sim.depolarize1(q, 0.05);
      sim.apply_cx(q, (q + 3) % kQubits);
      sim.depolarize2(q, (q + 3) % kQubits, 0.03);
      sim.z_error(q, 0.2, mask.data());
      sim.x_error((q + 1) % kQubits, 1e-4);
    }
    const size_t m0 = sim.measure_z(0);
    sim.classical_x(1, m0);
    sim.measure_x(3);
    sim.discard_where(m0, true);
    Capture cap;
    for (size_t q = 0; q < kQubits; ++q) {
      cap.frames.insert(cap.frames.end(), sim.x_flips(q),
                        sim.x_flips(q) + sim.num_words());
      cap.frames.insert(cap.frames.end(), sim.z_flips(q),
                        sim.z_flips(q) + sim.num_words());
    }
    for (size_t m = 0; m < sim.record().size(); ++m) {
      cap.record.insert(cap.record.end(), sim.record().row(m),
                        sim.record().row(m) + sim.num_words());
    }
    cap.abort.assign(sim.abort_mask(), sim.abort_mask() + sim.num_words());
    return cap;
  };
  simd::set_level(simd::Level::kScalar);
  const Capture expected = run();
  for (const simd::Level lv : levels()) {
    simd::set_level(lv);
    const Capture got = run();
    EXPECT_EQ(got.frames, expected.frames)
        << "frames diverge at " << simd::level_name(lv);
    EXPECT_EQ(got.record, expected.record)
        << "record diverges at " << simd::level_name(lv);
    EXPECT_EQ(got.abort, expected.abort)
        << "abort mask diverges at " << simd::level_name(lv);
  }
}

// The fill converts each log to a skip length where its walk consumes it,
// so its draws stay those of the mirror below only if the conversion is
// 1 + std::floor(log * inv) exactly. The logs include log(1) of u = 0, a
// -0.0 and that of the smallest 1 - u, 2^-53; the rates run from dense to
// p = 1e-18, whose products pass 2^62, where the length saturates.
TEST_F(SimdKernelsTest, SkipLengthMatchesScalarFloor) {
  constexpr double kCap = 0x1p62;
  const auto expected = [&](double x) -> int64_t {
    return x < kCap ? 1 + static_cast<int64_t>(std::floor(x))
                    : 1 + (int64_t{1} << 62);
  };
  Rng rng(0x5EED);
  std::vector<double> logs(64);
  for (double& v : logs) v = 1.0 - rng.next_double();
  logs[0] = 1.0;
  logs[2] = 0x1.0p-53;
  simd::log_unit(logs.data(), logs.size());
  logs[1] = -0.0;
  for (const double p : {0.3, 1e-3, 1e-17, 1e-18}) {
    const double inv = 1.0 / std::log1p(-p);
    for (const double log : logs) {
      EXPECT_EQ(sim::BatchFrameSim::skip_length(log, inv), expected(log * inv))
          << "p = " << p << ", log = " << log;
    }
  }
  // Products at and between integers, around 2^52 (from there every double
  // is an integer) and at the cap (inv = -1 makes the product the negated
  // log exactly).
  for (const double x :
       {0.0, 0x1.0p-1074, 0.5, 1.0 - 0x1.0p-53, 1.0, 1.5, 2.5, 0x1.0p52 - 0.5,
        0x1.0p52, 0x1.0p52 + 2.0, 0x1.0p53 + 2.0, 0x1.0p62 - 512.0, 0x1.0p62,
        0x1.0p63, HUGE_VAL}) {
    EXPECT_EQ(sim::BatchFrameSim::skip_length(-x, -1.0), expected(x)) << x;
  }
}

// Mirrors BatchFrameSim's geometric-skip sampler draw for draw: blocks of
// kFillBlock uniforms transformed through simd::log_unit, consumed one log
// at a time across fills (leftovers carry between channel calls with
// different p), each skip 1 + std::floor(log * inv). It is the reference
// for the fill's inline skip lengths and cached 1/log1p(-p): any change to
// the RNG stream shows up here as a bit mismatch.
class FillMirror {
 public:
  explicit FillMirror(uint64_t seed, size_t shots)
      : rng_(seed), shots_(shots), words_(shots / 64) {}

  // Expected (hit words, dirty indices) of the next fill_hit_words(p).
  struct Expected {
    std::vector<uint64_t> hit;
    std::vector<uint32_t> dirty;
    bool dense = false;
    bool empty = false;
  };
  Expected fill(double p) {
    Expected out;
    out.hit.assign(words_, 0);
    if (p <= 0) {
      out.empty = true;
      return out;
    }
    if (p >= 1) {
      out.hit.assign(words_, ~uint64_t{0});
      out.dense = true;
      return out;
    }
    const double inv = 1.0 / std::log1p(-p);
    const auto total = static_cast<double>(shots_);
    uint32_t last = ~uint32_t{0};
    double position = -1.0;
    for (;;) {
      const double skip = 1.0 + std::floor(next_log() * inv);
      position += skip;
      if (position >= total) break;
      const auto bit = static_cast<size_t>(position);
      const auto word = static_cast<uint32_t>(bit >> 6);
      out.hit[word] |= uint64_t{1} << (bit & 63);
      if (word != last) out.dirty.push_back(word);
      last = word;
    }
    out.empty = out.dirty.empty();
    return out;
  }

 private:
  double next_log() {
    if (pos_ == sim::BatchFrameSim::kFillBlock) {
      for (double& v : cache_) v = 1.0 - rng_.next_double();
      sim::simd::log_unit(cache_.data(), cache_.size());
      pos_ = 0;
    }
    return cache_[pos_++];
  }

  Rng rng_;
  size_t shots_;
  size_t words_;
  std::array<double, sim::BatchFrameSim::kFillBlock> cache_{};
  size_t pos_ = sim::BatchFrameSim::kFillBlock;
};

TEST_F(SimdKernelsTest, FillHitWordsMatchesDrawOrderMirror) {
  constexpr uint64_t kSeed = 98765;
  // The logs come from the per-level log_unit kernel, so run the whole
  // mirror at every level this host supports.
  for (const simd::Level lv : levels()) {
    simd::set_level(lv);
    SCOPED_TRACE(simd::level_name(lv));
    // One word; 13 words, with tails at both vector widths; and a register
    // whose dense fills walk many cache refills inside one call.
    for (const size_t shots : {size_t{64}, size_t{13 * 64}, size_t{65536}}) {
      SCOPED_TRACE(shots);
      sim::BatchFrameSim sim(/*num_qubits=*/1, shots, kSeed);
      FillMirror mirror(kSeed, shots);
      const auto check = [&](double p) {
        SCOPED_TRACE(p);
        const auto expected = mirror.fill(p);
        const auto got = sim.fill_hit_words(p);
        if (expected.empty) {
          EXPECT_FALSE(got);
          return;
        }
        ASSERT_TRUE(got);
        EXPECT_EQ(got.dense, expected.dense);
        EXPECT_EQ(std::vector<uint64_t>(got.bits, got.bits + sim.num_words()),
                  expected.hit);
        if (!expected.dense) {
          EXPECT_EQ(
              std::vector<uint32_t>(got.dirty, got.dirty + got.num_dirty),
              expected.dirty);
        }
      };
      // Interleave sparse, dense, degenerate, and moderate p: the leftover
      // skip logs must carry across calls, the dense path must not consume
      // draws, and the scratch must come back clean after every shape of
      // fill.
      for (const double p :
           {1e-3, 0.0, 0.4, 1.0, 1e-5, 0.08, 1.5, 1e-3, 0.25}) {
        check(p);
        if (HasFailure()) return;
      }
      // Then a seeded run of fills whose rate repeats or changes at random,
      // so the cached 1/log1p(-p) is both reused and replaced, and fills
      // end at many offsets within the log cache.
      const double rates[] = {0.0, 1e-5, 1e-3, 0.02, 0.3, 1.0};
      Rng pick(kSeed + shots);
      for (int fill = 0; fill < 300; ++fill) {
        check(rates[pick.next_below(std::size(rates))]);
        if (HasFailure()) return;
      }
    }
  }
}

// The scratch-zeroing regression (the bug the dirty-word bookkeeping once
// had): a dense fill followed by a sparse one must not leak the dense fill's
// all-ones words into the sparse result, and two sparse fills must not leak
// each other's bits.
TEST_F(SimdKernelsTest, FillHitWordsScratchComesBackClean) {
  sim::BatchFrameSim sim(/*num_qubits=*/1, /*shots=*/8 * 64, /*seed=*/5);
  (void)sim.fill_hit_words(1.0);  // dense: every word all-ones
  const auto sparse = sim.fill_hit_words(1e-3);
  size_t bits = 0;
  if (sparse) {
    for (size_t w = 0; w < sim.num_words(); ++w) {
      bits += static_cast<size_t>(__builtin_popcountll(sparse.bits[w]));
    }
  }
  // 512 lanes at p = 1e-3: a leak of even one stale word adds 64 bits.
  EXPECT_LT(bits, 32u);
  // And every bit set must be listed in the dirty words.
  if (sparse) {
    for (size_t w = 0; w < sim.num_words(); ++w) {
      if (sparse.bits[w] == 0) continue;
      bool listed = false;
      for (size_t i = 0; i < sparse.num_dirty; ++i) {
        listed |= sparse.dirty[i] == w;
      }
      EXPECT_TRUE(listed) << "word " << w << " set but not dirty-listed";
    }
  }
}

}  // namespace
}  // namespace ftqc
