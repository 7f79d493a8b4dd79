#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ft/noise_injector.h"
#include "sim/circuit.h"
#include "sim/frame_sim.h"

namespace ftqc::ft {

// Executes an ideal gadget circuit on a Pauli frame, announcing every fault
// opportunity to the injector: after each unitary (gate noise), after each
// R (preparation noise), before each M/MX (measurement noise), and at each
// TICK for every qubit of `active_qubits` that rested during the layer
// (storage noise, §6 "maximal parallelism": only the resting qubits decohere
// extra). The storage announcements are skipped when the injector does not
// act on storage (`acts_on_storage()`). Writes the measurement flips
// relative to the noiseless reference into `record`, one entry per
// measurement in order.
//
// `active_qubits` names the qubits considered alive for storage accounting;
// gadget drivers pass the data block plus any in-flight ancillas and exclude
// qubits not yet prepared. The circuit must fit the frame's register, and
// every active qubit must lie in it. `touched` is per-qubit scratch. Both
// buffers are overwritten and keep their capacity, so a caller that owns
// them (the one-lane FrameLane) replays gadgets without allocating.
void run_gadget(sim::FrameSim& frame, const sim::Circuit& circuit,
                NoiseInjector& injector,
                std::span<const uint32_t> active_qubits,
                std::vector<uint64_t>& record, std::vector<uint8_t>& touched);

// The same in fresh buffers, returning the flips.
std::vector<uint8_t> run_gadget(sim::FrameSim& frame, const sim::Circuit& circuit,
                                NoiseInjector& injector,
                                std::span<const uint32_t> active_qubits);

}  // namespace ftqc::ft
