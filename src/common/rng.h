#pragma once

#include <cstddef>
#include <cstdint>

namespace ftqc {

// xoshiro256** by Blackman & Vigna (public domain reference implementation,
// re-typed). Chosen over std::mt19937_64 for speed in the Monte Carlo hot
// loops and for trivially cheap per-thread forking via long jumps.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(uint64_t seed) {
    // SplitMix64 expansion of the seed into the 256-bit state.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      word = z ^ (z >> 31);
    }
  }

  uint64_t next_u64() {
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [0, bound) via Lemire's multiply-shift rejection.
  uint64_t next_below(uint64_t bound) {
    if (bound <= 1) return 0;
    while (true) {
      const uint64_t r = next_u64();
      const __uint128_t m = static_cast<__uint128_t>(r) * bound;
      const auto lo = static_cast<uint64_t>(m);
      if (lo >= bound || lo >= (-bound) % bound) {
        return static_cast<uint64_t>(m >> 64);
      }
    }
  }

  bool bernoulli(double p) { return next_double() < p; }

  // Independent stream for a worker thread: splitmix-derived reseed keyed by
  // the worker index, so OpenMP shards never share state.
  [[nodiscard]] Rng fork(uint64_t stream) const {
    Rng child(state_[0] ^ (0xA0761D6478BD642Full * (stream + 1)));
    return child;
  }

 private:
  static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t state_[4];
};

// MT19937-64 (Matsumoto & Nishimura), draw for draw the stream of
// std::mt19937_64 seeded with the same value: the same seeding recurrence,
// twist and tempering. The twist selects its matrix term with a mask, not a
// branch on each state word's low bit, so no draw branches on random bits.
// The rare-event samplers seed one per proposal replay; their recorded
// counts fix this stream.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(uint64_t seed) {
    state_[0] = seed;
    for (size_t i = 1; i < kN; ++i) {
      const uint64_t prev = state_[i - 1];
      state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
    }
  }

  result_type operator()() {
    if (index_ == kN) twist();
    uint64_t z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

 private:
  static constexpr size_t kN = 312;
  static constexpr size_t kM = 156;

  // One recurrence step: the upper 33 bits of `word`, the lower 31 of
  // `next`, xored into `far`.
  static uint64_t step(uint64_t word, uint64_t next, uint64_t far) {
    constexpr uint64_t kUpper = ~uint64_t{0} << 31;
    const uint64_t y = (word & kUpper) | (next & ~kUpper);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9ull);
  }

  void twist() {
    size_t i = 0;
    for (; i < kN - kM; ++i) {
      state_[i] = step(state_[i], state_[i + 1], state_[i + kM]);
    }
    for (; i < kN - 1; ++i) {
      state_[i] = step(state_[i], state_[i + 1], state_[i + kM - kN]);
    }
    state_[kN - 1] = step(state_[kN - 1], state_[0], state_[kM - 1]);
    index_ = 0;
  }

  uint64_t state_[kN];
  size_t index_ = kN;
};

}  // namespace ftqc
