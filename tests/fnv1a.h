#pragma once

#include <cstdint>

namespace ftqc {

// FNV-1a over 64-bit words, byte by byte: the hash behind the suites'
// recorded-fingerprint pins.
class Fnv1a {
 public:
  void add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace ftqc
