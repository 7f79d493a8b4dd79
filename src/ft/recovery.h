#pragma once

#include <cstdint>

#include "common/check.h"
#include "gf2/bitvec.h"
#include "gf2/hamming.h"
#include "sim/frame_sim.h"

namespace ftqc::ft {

// How a level-2 concatenated gadget treats its level-1 subblocks.
enum class Level2Discipline : uint8_t {
  // §5 "all levels simultaneously": bare level-1 subblocks, one 49-qubit
  // extraction serves both levels. A pair of transversal-XOR faults during
  // ancilla preparation can seed two subblocks at once and defeat the
  // hierarchy at O(eps^2) with a large constant.
  kBare,
  // Extended-rectangle discipline (Aliferis-Gottesman-Preskill, after the
  // malignant-pair counting in Gottesman's stabilizer framework): verified
  // level-1 Steane recoveries are interleaved on every 7-qubit subblock of
  // the level-2 ancilla after the logical-H/transversal-XOR fan-out layers
  // and before verification, so physical errors are scrubbed before they
  // can pair up across subblocks.
  kExRec,
};

// Knobs of the fault-tolerant recovery protocols of §3. Disabling a knob
// reproduces the paper's "what goes wrong without this precaution"
// comparisons (benches E2-E4).
struct RecoveryPolicy {
  // §3.3: verify ancilla states (cat check bit / encoded-|0> comparison)
  // before use.
  bool verify_ancilla = true;
  // §3.4: accept a nontrivial syndrome only after reading the same value
  // twice; defer the correction otherwise.
  bool repeat_nontrivial_syndrome = true;
  // §3.3 verification of the encoded ancilla is itself measured twice; a
  // conflicted pair means "safe to do nothing".
  int verification_rounds = 2;
  // Maximum cat-state preparation attempts before giving up the discard
  // loop and using the last cat unverified.
  int max_cat_attempts = 8;
  // Heralded-erasure handling (the Fig. 15 detect-and-replace generalized
  // to an in-gadget reinit): a freshly prepared ancilla block that reports
  // an erasure herald is discarded and re-prepared instead of feeding a
  // known-maximally-mixed qubit into the extraction, and heralded cat
  // qubits count as failed verification in the §3.3 discard loop. A no-op
  // when the noise model has p_erase = 0.
  bool herald_reinit = true;
  // Re-preparation budget per ancilla; an exhausted loop keeps the last
  // (still-heralded) block — the serial drivers proceed with it, the batch
  // drivers additionally surface those lanes through the abort-mask
  // contract (same semantics as cat-retry exhaustion).
  int max_herald_retries = 4;
  // Level-2 gadgets only: bare subblocks or the extended-rectangle
  // interleave. kBare reproduces the original gadget bit for bit.
  Level2Discipline level2_discipline = Level2Discipline::kBare;
  // kExRec only: additionally run level-1 recoveries on the DATA subblocks
  // between syndrome extraction and correction. The level-2 correction then
  // applies only the top-level logical fix and delegates the per-subblock
  // physical fixes to those recoveries (re-applying the now-stale level-1
  // corrections would re-inject the very errors the recoveries removed).
  bool exrec_data_recoveries = false;
};

// Injects the Pauli named by `pauli` ('X', 'Y' or 'Z') on qubit q of a
// frame simulator — a FrameSim, or every lane of a BatchFrameSim. The
// drivers' inject_data bodies check their own qubit range and call this.
template <typename Sim>
void inject_pauli(Sim& sim, uint32_t q, char pauli) {
  switch (pauli) {
    case 'X': sim.inject_x(q); break;
    case 'Y': sim.inject_y(q); break;
    case 'Z': sim.inject_z(q); break;
    default: FTQC_CHECK(false, "inject_data expects X, Y or Z");
  }
}

}  // namespace ftqc::ft
