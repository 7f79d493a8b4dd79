#pragma once

#include <cstdint>
#include <vector>

#include "codes/stabilizer_code.h"

namespace ftqc::codes {

// Minimum-weight lookup decoder: maps every syndrome to the lowest-weight
// Pauli producing it (ties broken by enumeration order). This realizes the
// paper's "ideal recovery" step — measure the syndrome, then apply the
// inferred unitary (§2) — and is used both inside recovery gadgets and for
// the end-of-experiment ideal decode of residual error frames.
class LookupDecoder {
 public:
  explicit LookupDecoder(const StabilizerCode& code);

  [[nodiscard]] const StabilizerCode& code() const { return code_; }

  // Correction for a measured syndrome, given as bits or packed (bit j for
  // generator j). Unfilled syndromes (possible only if the table could not
  // be completed) decode to identity.
  [[nodiscard]] pauli::PauliString decode(uint64_t syndrome) const;
  [[nodiscard]] pauli::PauliString decode(const gf2::BitVec& syndrome) const {
    return decode(syndrome.to_u64());
  }

  // Applies decode() to the error's own syndrome and reports whether the
  // corrected residual (error * correction) acts as a logical operator.
  [[nodiscard]] StabilizerCode::LogicalEffect residual_effect(
      const pauli::PauliString& error) const;

  // True iff the error is corrected without any logical damage.
  [[nodiscard]] bool corrects(const pauli::PauliString& error) const {
    return !residual_effect(error).any();
  }

  // Number of syndromes with a stored correction.
  [[nodiscard]] size_t table_size() const { return table_size_; }

 private:
  const StabilizerCode& code_;
  size_t words_;  // words per packed X (or Z) half of a Pauli
  // Entry s holds the correction for syndrome s as words_ X words then
  // words_ Z words; an unreached entry stays all-zero (the identity).
  std::vector<uint64_t> table_;
  size_t table_size_ = 0;
};

}  // namespace ftqc::codes
