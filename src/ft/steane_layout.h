#pragma once

#include <array>
#include <cstdint>

namespace ftqc::ft::steane_layout {

// Register layout of the serial (SteaneRecovery) and batch
// (BatchSteaneRecovery) Fig. 9 drivers: data block [0,7), syndrome ancilla
// [7,14), verification ancilla [14,21).
inline constexpr uint32_t kNumQubits = 21;
inline constexpr std::array<uint32_t, 7> kData = {0, 1, 2, 3, 4, 5, 6};
inline constexpr std::array<uint32_t, 7> kAncA = {7, 8, 9, 10, 11, 12, 13};
inline constexpr std::array<uint32_t, 7> kAncB = {14, 15, 16, 17, 18, 19, 20};

}  // namespace ftqc::ft::steane_layout
