#include "codes/lookup_decoder.h"

#include <algorithm>
#include <array>
#include <vector>

#include "common/check.h"

namespace ftqc::codes {

using pauli::PauliString;

LookupDecoder::LookupDecoder(const StabilizerCode& code)
    : code_(code), words_((code.n() + 63) / 64) {
  FTQC_CHECK(code.num_generators() <= 63, "syndrome too wide for lookup table");
  const size_t n = code.n();
  const size_t num_syndromes = size_t{1} << code.num_generators();
  // The syndrome map is linear, so changing one site's Pauli XORs the packed
  // syndromes of the old and the new single-site Pauli into the syndrome.
  // column[q][i] packs the syndrome of Pauli i on site q, with i = x | z << 1
  // (I, X, Z, Y): X_q flips the generators with a Z or Y on q, Z_q those
  // with an X or Y.
  std::vector<std::array<uint64_t, 4>> column(n);
  for (size_t g = 0; g < code.num_generators(); ++g) {
    for (size_t q = 0; q < n; ++q) {
      column[q][1] |= uint64_t{code.generators()[g].z_bit(q)} << g;
      column[q][2] |= uint64_t{code.generators()[g].x_bit(q)} << g;
    }
  }
  for (auto& c : column) c[3] = c[1] ^ c[2];
  const size_t stride = 2 * words_;
  table_.assign(num_syndromes * stride, 0);
  std::vector<bool> reached(num_syndromes, false);
  reached[0] = true;  // the identity
  table_size_ = 1;

  // Breadth-first search on the syndrome space with single-site Paulis as
  // edges. Each step changes one site, so the first visit to a syndrome
  // happens at a depth equal to the minimum error weight for that syndrome:
  // the stored representative is a true minimum-weight correction. Sites
  // and Paulis are tried in a fixed order (q ascending; X, Y, Z), which
  // breaks ties between equal-weight corrections.
  std::vector<uint64_t> frontier = {0}, next;
  while (table_size_ < num_syndromes && !frontier.empty()) {
    next.clear();
    for (const uint64_t key : frontier) {
      const uint64_t* base = &table_[key * stride];
      for (size_t q = 0; q < n; ++q) {
        const size_t w = q / 64, shift = q % 64;
        const auto here = static_cast<unsigned>(
            (base[w] >> shift & 1) | (base[words_ + w] >> shift & 1) << 1);
        for (const unsigned to : {1u, 3u, 2u}) {  // X, Y, Z
          if (to == here) continue;
          const uint64_t s = key ^ column[q][here] ^ column[q][to];
          if (reached[s]) continue;
          reached[s] = true;
          // The base correction with site q switched from `here` to `to`.
          uint64_t* entry = &table_[s * stride];
          std::copy_n(base, stride, entry);
          entry[w] ^= uint64_t{(here ^ to) & 1u} << shift;
          entry[words_ + w] ^= uint64_t{(here ^ to) >> 1} << shift;
          ++table_size_;
          next.push_back(s);
        }
      }
    }
    std::swap(frontier, next);
  }
}

PauliString LookupDecoder::decode(uint64_t syndrome) const {
  FTQC_DCHECK(syndrome * 2 * words_ < table_.size(),
              "syndrome wider than the code");
  PauliString correction(code_.n());
  const uint64_t* entry = &table_[syndrome * 2 * words_];
  for (size_t w = 0; w < words_; ++w) {
    correction.x_part().set_word(w, entry[w]);
    correction.z_part().set_word(w, entry[words_ + w]);
  }
  return correction;
}

StabilizerCode::LogicalEffect LookupDecoder::residual_effect(
    const PauliString& error) const {
  const PauliString residual = error * decode(code_.syndrome(error));
  return code_.logical_effect(residual);
}

}  // namespace ftqc::codes
