#pragma once

#include <cstdint>
#include <vector>

#include "decode/spacetime.h"

namespace ftqc::decode {

// 64 decoding problems packed bit-parallel, matching BatchFrameSim's lane
// layout: word [round * sites + site] holds the syndrome bit of that
// (site, round) cell for all 64 lanes (bit l = lane l). `rounds` counts the
// measured rounds PLUS the final trusted row, exactly like the syndrome list
// SpacetimeToricDecoder::decode takes.
struct PackedSyndromes {
  size_t sites = 0;
  size_t rounds = 0;
  std::vector<uint64_t> words;

  void resize(size_t num_sites, size_t num_rounds) {
    sites = num_sites;
    rounds = num_rounds;
    words.assign(num_sites * num_rounds, 0);
  }
  [[nodiscard]] uint64_t* row(size_t round) { return &words[round * sites]; }
  [[nodiscard]] const uint64_t* row(size_t round) const {
    return &words[round * sites];
  }
  void set(size_t round, size_t site, size_t lane, bool value) {
    uint64_t& w = words[round * sites + site];
    const uint64_t bit = uint64_t{1} << lane;
    w = value ? (w | bit) : (w & ~bit);
  }
  [[nodiscard]] bool get(size_t round, size_t site, size_t lane) const {
    return (words[round * sites + site] >> lane) & 1;
  }
};

// Decodes all 64 packed lanes. The round-to-round syndrome diffs are computed
// once per (site, round) word — shared across the 64 lanes — and each set bit
// streams a (site, round) defect into its lane's list in the canonical order
// (rounds ascending, sites ascending within a round). Each lane then runs
// through SpacetimeToricDecoder::decode_defects, the same matching core the
// serial decode() uses, so lane l's correction is bit-for-bit what a serial
// decode of lane l's unpacked syndromes returns. Lanes outside `lane_mask`
// are skipped and get an empty BitVec.
[[nodiscard]] std::vector<gf2::BitVec> decode_lanes(
    const SpacetimeToricDecoder& decoder, const PackedSyndromes& packed,
    uint64_t lane_mask = ~uint64_t{0});

// Batched 2D memory kernel (perfect measurement): `shots` lanes of iid X
// noise at rate p, sampled 64 per BatchFrameSim word, syndromes extracted
// bit-sliced (one 4-word XOR per plaquette), decoded through decode_lanes,
// logical verdicts read bit-sliced off the residual. `decoder` must be a
// plaquette decoder on the target code; each lane is a one-round trusted
// history, so its correction is what decoder.decode({syndrome}) returns for
// the lane's snapshot. Returns the failure count (either logical qubit
// flipped).
[[nodiscard]] uint64_t batch_memory_2d_failures(
    const SpacetimeToricDecoder& decoder, double p, size_t shots,
    uint64_t seed);

}  // namespace ftqc::decode
