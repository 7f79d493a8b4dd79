#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

// Serial-vs-batch statistical pins shared by the recovery suites.
namespace ftqc {

// Stochastic agreement between two engines: both counts target the same
// failure probability, so a two-sample binomial z-test (pooled variance)
// bounds their difference. The bound sits at a false-failure rate of 1e-6
// per check, as in perfbench's reference checks: a correct driver fails it
// for about one seed in a million.
constexpr double kFalseFailureRate = 1e-6;
// Two-sided normal quantile at kFalseFailureRate: Phi^-1(1 - 5e-7).
constexpr double kZCritical = 4.891638;

// |z| of the pooled two-sample test on equal shot counts.
[[nodiscard]] inline double two_sample_z(uint64_t failures_a,
                                         uint64_t failures_b, size_t shots) {
  const double n = static_cast<double>(shots);
  const double pa = static_cast<double>(failures_a) / n;
  const double pb = static_cast<double>(failures_b) / n;
  const double pooled = (pa + pb) / 2;
  const double se = std::sqrt(pooled * (1 - pooled) * 2 / n);
  return se > 0 ? std::fabs(pa - pb) / se : 0.0;
}

inline void expect_counts_agree(uint64_t serial_failures,
                                uint64_t batch_failures, size_t shots) {
  const double n = static_cast<double>(shots);
  EXPECT_LE(two_sample_z(serial_failures, batch_failures, shots), kZCritical)
      << "serial " << static_cast<double>(serial_failures) / n << " vs batch "
      << static_cast<double>(batch_failures) / n << ": |z| "
      << two_sample_z(serial_failures, batch_failures, shots)
      << " (false-failure rate " << kFalseFailureRate << ")";
}

// One cycle on a clean block hardly depends on the correction, so a
// single-cycle pin cannot tell a batch driver that skips or misapplies it.
// This pin runs `cycles` cycles, each after a round of memory noise on the
// data block of both engines: uncorrected errors then pile up into logical
// failures, and the failure counts must still pass the z-test. One serial
// driver serves every shot (reset() clears the frame; its RNG runs on).
template <typename Serial, typename Batch>
void expect_memory_cycles_agree(Serial& serial, Batch& batch, int cycles,
                                double p) {
  const size_t shots = batch.num_shots();
  uint64_t serial_failures = 0;
  for (size_t s = 0; s < shots; ++s) {
    serial.reset();
    for (int c = 0; c < cycles; ++c) {
      serial.apply_memory_noise(p);
      serial.run_cycle();
    }
    serial_failures += serial.any_logical_error() ? 1 : 0;
  }
  for (int c = 0; c < cycles; ++c) {
    batch.apply_memory_noise(p);
    batch.run_cycle();
  }
  // The point is alive: failures are common enough to resolve a skipped
  // correction.
  EXPECT_GT(static_cast<double>(serial_failures),
            0.01 * static_cast<double>(shots));
  expect_counts_agree(serial_failures, batch.count_any_logical_error(shots),
                      shots);
}

}  // namespace ftqc
