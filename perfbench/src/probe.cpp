#include "probe.h"

#include <cstdint>
#include <vector>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kProbeInterval = std::chrono::milliseconds(100);

// Keeps the compiler from dropping a buffer whose contents nothing reads.
inline void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

inline uint64_t xorshift(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

double probe_speed() {
  const auto start = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t acc = 0;
  // Phase 1: a fresh buffer of 64-127 words per round, filled from the
  // generator, then read-modify-write updates of a 16 KB table.
  std::vector<uint32_t> table(4096);
  for (int round = 0; round < 1500; ++round) {
    std::vector<uint32_t> words(64 + (x & 63));
    for (uint32_t& w : words) {
      x = xorshift(x);
      w = static_cast<uint32_t>(x);
    }
    for (const uint32_t w : words) {
      if ((w & 1) != 0) {
        acc += table[w & 4095]++;
      } else {
        acc ^= w >> 3;
      }
    }
  }
  // Phase 2: many small allocations of 16-143 bytes, freed at once.
  for (int round = 0; round < 10000; ++round) {
    x = xorshift(x);
    std::vector<std::vector<uint8_t>> blocks(4);
    for (std::vector<uint8_t>& block : blocks) {
      block.resize(16 + (x & 127));
      block[x & 15] = static_cast<uint8_t>(x);
      escape(block.data());
      acc += block[3];
    }
  }
  escape(&acc);
  return 1.0 / std::chrono::duration<double>(Clock::now() - start).count();
}

void ProbeLog::after_work() {
  const std::thread::id thread = std::this_thread::get_id();
  const auto now = Clock::now();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto last = last_.try_emplace(thread, start_).first->second;
    if (now - last < kProbeInterval) return;
  }
  const double speed = probe_speed();
  const auto end = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  last_[thread] = end;
  speed_sum_ += speed;
  seconds_ += std::chrono::duration<double>(end - now).count();
  ++count_;
}

double ProbeLog::mean_speed() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return count_ > 0 ? speed_sum_ / static_cast<double>(count_) : probe_speed();
}

double ProbeLog::seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return seconds_;
}

}  // namespace perfbench
