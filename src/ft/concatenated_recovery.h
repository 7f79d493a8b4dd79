#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ft/noise_injector.h"
#include "ft/recovery.h"
#include "ft/steane_recovery.h"
#include "gf2/hamming.h"
#include "sim/frame_sim.h"
#include "sim/noise_model.h"

namespace ftqc::ft {

// Physical qubits of level-1 subblock `sub` within the 49-qubit block
// starting at `base`. Shared by the serial and batch level-2 drivers.
[[nodiscard]] std::array<uint32_t, 7> level2_subblock(uint32_t base,
                                                      size_t sub);

// Every circuit a level-2 cycle replays, built once (thread-safe static
// init; read-only afterwards) and read by both lane engines. The
// exhaustive fault scans replay a level-2 cycle ~200k times, and the batch
// engine amortizes the one build over every block of every sweep.
struct Level2Circuits {
  // Level-2 |0>_code preparations on ancilla A and B: seven level-1
  // |0>_code preparations followed by the Fig. 3 structure applied with
  // LOGICAL gates (bitwise H on pivot subblocks, transversal XOR fan-outs).
  sim::Circuit prep_a;
  sim::Circuit prep_b;
  // §3.3 verification: transversal XOR A -> B, then measure B.
  sim::Circuit verify;
  // Syndrome extraction, indexed by phase_type (false = bit-flip).
  std::array<sim::Circuit, 2> extract;
  // The exRec interleave: one level-1 cycle per 7-qubit subblock on the
  // shared scratch ancillas, [0] on the data block, [1] on ancilla A.
  std::array<std::array<SteaneCycleCircuits, 7>, 2> subblock_cycles;
  // Storage-accounting sets: data + ancilla A, and all three 49-qubit
  // blocks. The scratch ancillas are alive only inside the interleaved
  // level-1 cycles, which do their own accounting.
  std::vector<uint32_t> data_and_a;
  std::vector<uint32_t> all;
};

[[nodiscard]] const Level2Circuits& level2_circuits();

// One full two-level recovery cycle on the level-2 register (layout below),
// on either lane engine (ft/lanes.h): Level2Recovery and BatchLevel2Recovery
// both run it. Subblock syndromes, the level-2 syndrome and the §3.4
// equality are bit-sliced: 24 rows, three level-1 Hamming syndrome rows per
// subblock, then the three level-2 rows. The sub-gadgets are announced as
// markers ("prep:A", "exrec:A", "verify", "extract", "exrec:data", each
// closed by a ":end" marker).
template <typename Lanes>
void level2_cycle(Lanes& lanes, const RecoveryPolicy& policy);

// Hierarchical decode of 49 bit-sliced rows of `words` words (record flips
// or residual frames): writes the seven subblock logical-value words into
// `logicals` (7 * words) and the level-2 logical decode into `out`.
void level2_decode_rows(const uint64_t* const rows[49], uint64_t* logicals,
                        uint64_t* out, size_t words);

// Hierarchical ideal decode of one shot's residual on the 49-qubit data
// block: `flip(q)` is the frame bit of data qubit q on the side decoded.
template <typename Flip>
[[nodiscard]] bool level2_decode_shot(Flip flip) {
  const gf2::Hamming743& hamming = gf2::hamming743();
  gf2::BitVec logicals(7);
  for (size_t sub = 0; sub < 7; ++sub) {
    gf2::BitVec word(7);
    for (size_t i = 0; i < 7; ++i) word.set(i, flip(7 * sub + i));
    logicals.set(sub, hamming.decode_logical(word));
  }
  return hamming.decode_logical(logicals);
}

// Fault-tolerant recovery for a LEVEL-2 concatenated Steane block (§5,
// Fig. 14): 49 data qubits arranged as seven level-1 subblocks. Because the
// Steane method is transversal at every level, one 49-qubit extraction
// serves both levels simultaneously — "the quantum data processing needed to
// extract a syndrome can be carried out at all levels of the concatenated
// code simultaneously":
//
//   * the ancilla is a verified level-2 |0>_code: seven level-1 |0>_code
//     preparations followed by the Fig. 3 structure applied with LOGICAL
//     gates (bitwise H on pivot subblocks, transversal XOR fan-outs);
//   * verification compares against a second level-2 block and decodes the
//     destructive measurement hierarchically (§3.3 at the top level);
//   * one transversal-XOR extraction yields, per subblock, the level-1
//     Hamming syndrome AND the subblock's logical value, whose 7-bit word
//     gives the level-2 syndrome — corrections are then applied at both
//     levels (physical Paulis and 3-qubit logical Paulis).
//
// Under RecoveryPolicy::level2_discipline == kExRec the gadget runs the
// extended-rectangle discipline instead: after the logical fan-out layers
// of the ancilla-A preparation (and, with exrec_data_recoveries, between
// extraction and correction on the data block) a full verified level-1
// Steane recovery cycle (steane_cycle) is interleaved on every 7-qubit
// subblock, scrubbing physical errors before they can pair up across
// subblocks. The seven subblock recoveries are physically concurrent under
// the §6 maximal-parallelism assumption, so each accounts storage noise
// only over its own 21-qubit register; the simulation serializes them
// through one shared pair of 7-qubit scratch ancilla blocks.
//
// Register: data [0,49), ancilla A [49,98), verification ancilla B
// [98,147), level-1 scratch ancillas [147,161) (exRec only; the bare
// discipline never touches them).
class Level2Recovery {
 public:
  static constexpr size_t kBlock = 49;
  static constexpr uint32_t kScratchA = 147;
  static constexpr uint32_t kScratchB = 154;
  static constexpr uint32_t kNumQubits = 161;

  Level2Recovery(const sim::NoiseParams& noise, RecoveryPolicy policy,
                 uint64_t seed);

  void reset();
  void inject_data(uint32_t q, char pauli);
  void apply_memory_noise(double p);

  // One full two-level recovery cycle.
  void run_cycle();

  // Hierarchical ideal decode of the residual frame.
  [[nodiscard]] bool logical_x_error() const;
  [[nodiscard]] bool logical_z_error() const;
  [[nodiscard]] bool any_logical_error() const {
    return logical_x_error() || logical_z_error();
  }

  void set_injector(NoiseInjector* injector);
  [[nodiscard]] sim::FrameSim& frame() { return frame_; }

 private:
  sim::FrameSim frame_;
  RecoveryPolicy policy_;
  StochasticInjector stochastic_;
  NoiseInjector* injector_;
};

}  // namespace ftqc::ft
