#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "ft/batch_recovery.h"
#include "ft/noise_injector.h"
#include "sim/batch_frame_sim.h"
#include "sim/circuit.h"
#include "sim/frame_sim.h"
#include "sim/noise_model.h"

namespace ftqc::ft {

// The engines a recovery cycle runs on. Each protocol's cycle (the Steane
// cycle, the level-2 cycle, the cat-state cycle and the flag cycle) is
// written once, as a template over a lane engine, and instantiated for both
// engines below. A cycle sees its shots as lanes and writes per-shot control
// flow as lane masks: words() words per mask, bit i of word w is lane
// 64 * w + i, nullptr means every lane. Lanes outside a mask take no noise
// from a masked call.
//
// The interface (static dispatch; both engines implement all of it):
//   words(), any(mask), count(mask)  mask size, "any lane set", lane count;
//   may_herald()                     whether erasure heralds can appear;
//   run(circuit, active_qubits, mask)
//       runs a gadget with noise on the lanes of `mask`; returns its record
//       rows (row k at k * words()), valid until the next run or retry;
//   retry(prep, block, active_qubits, attempts, check, herald, mask)
//       re-runs a preparation on the lanes that failed it (see
//       BatchCatRetry::run); returns the failed attempts summed over lanes;
//   gate1(q, mask), storage(q, mask)   a gate or storage fault opportunity
//       outside a gadget;
//   inject_x(q, mask), inject_z(q, mask)  a Pauli fix;
//   reset(q)                         clears qubit q on every lane;
//   marker(label, mask)              names the sub-gadget about to run.

// 64 shots per word on a BatchFrameSim: the calls of BatchGadgetRunner,
// BatchCatRetry and the batch_on_* channels. A channel call draws from the
// sim's one geometric stream even when its mask is empty, so a cycle makes
// the same calls whatever its masks hold. Markers are dropped.
class BatchLanes {
 public:
  BatchLanes(sim::BatchFrameSim& sim, const sim::NoiseParams& noise)
      : sim_(sim), gadgets_(sim, noise), retry_(sim) {}

  [[nodiscard]] size_t words() const { return sim_.num_words(); }
  [[nodiscard]] bool any(const uint64_t* mask) const {
    return batch_any_lane(mask, sim_.num_words());
  }
  [[nodiscard]] uint64_t count(const uint64_t* mask) const {
    return batch_count_lanes(mask, sim_.num_words(), sim_.num_shots());
  }
  [[nodiscard]] bool may_herald() const { return noise().p_erase > 0; }
  [[nodiscard]] const sim::NoiseParams& noise() const {
    return gadgets_.noise();
  }

  std::span<const uint64_t> run(const sim::Circuit& circuit,
                                std::span<const uint32_t> active_qubits,
                                const uint64_t* mask);
  uint64_t retry(const sim::Circuit& prep, std::span<const uint32_t> block,
                 std::span<const uint32_t> active_qubits, int attempts,
                 bool check, bool herald, const uint64_t* mask) {
    return retry_.run(gadgets_, prep, block, active_qubits, attempts, check,
                      herald, mask);
  }
  void gate1(uint32_t q, const uint64_t* mask) {
    batch_on_gate1(sim_, noise(), q, mask);
  }
  void storage(uint32_t q, const uint64_t* mask) {
    batch_on_storage(sim_, noise(), q, mask);
  }
  void inject_x(uint32_t q, const uint64_t* mask) {
    sim_.inject_x_masked(q, mask);
  }
  void inject_z(uint32_t q, const uint64_t* mask) {
    sim_.inject_z_masked(q, mask);
  }
  void reset(uint32_t q) { sim_.reset(q); }
  void marker(std::string_view, const uint64_t*) {}

 private:
  sim::BatchFrameSim& sim_;
  BatchGadgetRunner gadgets_;
  BatchCatRetry retry_;
};

// One shot on a FrameSim, announcing every fault opportunity to a
// NoiseInjector: one word per mask, bit 0 is the shot (the other bits carry
// no meaning and are never read). A gadget runs through run_gadget, into a
// record and a storage scratch the lane owns (a cycle allocates them once),
// and is skipped (its rows read zero) when the bit is clear; a masked hook
// fires only when the bit is set. The retry is the serial loop, and markers
// go to the injector. This is what lets the serial drivers keep what only the
// serial engine offers — leakage, FaultPointInjector scans and markers,
// rare-event proposals — on the same cycle bodies as the batch engine.
class FrameLane {
 public:
  FrameLane(sim::FrameSim& frame, NoiseInjector& injector)
      : frame_(frame), injector_(injector) {}

  [[nodiscard]] size_t words() const { return 1; }
  [[nodiscard]] bool any(const uint64_t* mask) const { return on(mask); }
  [[nodiscard]] uint64_t count(const uint64_t* mask) const {
    return on(mask) ? 1 : 0;
  }
  [[nodiscard]] bool may_herald() const { return true; }

  std::span<const uint64_t> run(const sim::Circuit& circuit,
                                std::span<const uint32_t> active_qubits,
                                const uint64_t* mask);
  uint64_t retry(const sim::Circuit& prep, std::span<const uint32_t> block,
                 std::span<const uint32_t> active_qubits, int attempts,
                 bool check, bool herald, const uint64_t* mask);
  void gate1(uint32_t q, const uint64_t* mask) {
    if (on(mask)) injector_.on_gate1(frame_, q);
  }
  void storage(uint32_t q, const uint64_t* mask) {
    if (on(mask)) injector_.on_storage(frame_, q);
  }
  void inject_x(uint32_t q, const uint64_t* mask) {
    if (on(mask)) frame_.inject_x(q);
  }
  void inject_z(uint32_t q, const uint64_t* mask) {
    if (on(mask)) frame_.inject_z(q);
  }
  void reset(uint32_t q) { frame_.reset(q); }
  void marker(std::string_view label, const uint64_t* mask) {
    if (on(mask)) injector_.on_marker(label);
  }

 private:
  static bool on(const uint64_t* mask) {
    return mask == nullptr || (mask[0] & 1u) != 0;
  }

  sim::FrameSim& frame_;
  NoiseInjector& injector_;
  std::vector<uint64_t> record_;
  std::vector<uint8_t> touched_;
};

}  // namespace ftqc::ft
