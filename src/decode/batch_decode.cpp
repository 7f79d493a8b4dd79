#include "decode/batch_decode.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "common/rng.h"
#include "sim/batch_frame_sim.h"
#include "topo/toric_code.h"

namespace ftqc::decode {

std::vector<gf2::BitVec> decode_lanes(const SpacetimeToricDecoder& decoder,
                                      const PackedSyndromes& packed,
                                      uint64_t lane_mask) {
  const topo::ToricCode& code = decoder.code();
  const size_t sites = decoder.side() == ToricSide::kPlaquette
                           ? code.num_plaquettes()
                           : code.num_vertices();
  FTQC_CHECK(packed.sites == sites, "packed syndrome site count mismatch");
  FTQC_CHECK(packed.rounds > 0, "need at least the final trusted round");
  FTQC_CHECK(packed.words.size() == packed.sites * packed.rounds,
             "packed syndrome word buffer size mismatch");

  // Diff pass, shared across lanes: one XOR per (site, round) word. prev
  // folds the diff back in (prev ^= d restores the current row) so no row is
  // ever copied. Set bits stream defects into their lane's list; iterating
  // rounds outer and sites inner preserves the serial decoder's canonical
  // defect order within every lane.
  std::array<std::vector<uint32_t>, 64> lane_site;
  std::array<std::vector<uint32_t>, 64> lane_round;
  std::vector<uint64_t> prev(sites, 0);
  for (size_t r = 0; r < packed.rounds; ++r) {
    const uint64_t* row = packed.row(r);
    for (size_t s = 0; s < sites; ++s) {
      uint64_t d = row[s] ^ prev[s];
      prev[s] ^= d;
      d &= lane_mask;
      while (d != 0) {
        const int lane = __builtin_ctzll(d);
        d &= d - 1;
        lane_site[static_cast<size_t>(lane)].push_back(
            static_cast<uint32_t>(s));
        lane_round[static_cast<size_t>(lane)].push_back(
            static_cast<uint32_t>(r));
      }
    }
  }

  std::vector<gf2::BitVec> corrections(64);
  for (size_t lane = 0; lane < 64; ++lane) {
    if (((lane_mask >> lane) & 1) == 0) continue;
    corrections[lane] =
        decoder.decode_defects(lane_site[lane], lane_round[lane]);
  }
  return corrections;
}

uint64_t batch_memory_2d_failures(const SpacetimeToricDecoder& decoder,
                                  double p, size_t shots, uint64_t seed) {
  const topo::ToricCode& code = decoder.code();
  FTQC_CHECK(decoder.side() == ToricSide::kPlaquette,
             "2D memory kernel decodes the plaquette (X-error) side");
  const size_t l = code.lattice();
  const size_t sites = code.num_plaquettes();

  uint64_t failures = 0;
  Rng seq(seed);
  PackedSyndromes packed;
  packed.resize(sites, 1);
  for (size_t done = 0; done < shots; done += 64) {
    const size_t lanes = std::min<size_t>(64, shots - done);
    const uint64_t mask =
        lanes == 64 ? ~uint64_t{0} : (uint64_t{1} << lanes) - 1;
    sim::BatchFrameSim bsim(code.num_qubits(), 64, seq.next_u64());
    for (size_t q = 0; q < code.num_qubits(); ++q) {
      bsim.x_error(q, p);
    }
    // One trusted syndrome row: each plaquette's word is the XOR of its four
    // edges' X-flip words — 64 shots of syndrome extraction per plaquette in
    // three word ops.
    for (size_t s = 0; s < sites; ++s) {
      const auto& e = code.plaquette_edges()[s];
      packed.words[s] = bsim.x_flips(e[0])[0] ^ bsim.x_flips(e[1])[0] ^
                        bsim.x_flips(e[2])[0] ^ bsim.x_flips(e[3])[0];
    }
    const auto corrections = decode_lanes(decoder, packed, mask);
    // Logical parities of the raw error, bit-sliced across all lanes.
    uint64_t err_f1 = 0, err_f2 = 0;
    for (size_t x = 0; x < l; ++x) err_f1 ^= bsim.x_flips(code.h_edge(x, 0))[0];
    for (size_t y = 0; y < l; ++y) err_f2 ^= bsim.x_flips(code.v_edge(0, y))[0];
    for (size_t lane = 0; lane < lanes; ++lane) {
      const auto [c1, c2] = code.logical_x_flips(corrections[lane]);
      const bool f1 = (((err_f1 >> lane) & 1) != 0) != c1;
      const bool f2 = (((err_f2 >> lane) & 1) != 0) != c2;
      failures += (f1 || f2) ? 1 : 0;
    }
  }
  return failures;
}

}  // namespace ftqc::decode
