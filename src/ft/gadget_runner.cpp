#include "ft/gadget_runner.h"

#include <algorithm>

#include "common/check.h"

namespace ftqc::ft {

void run_gadget(sim::FrameSim& frame, const sim::Circuit& circuit,
                NoiseInjector& injector,
                std::span<const uint32_t> active_qubits,
                std::vector<uint64_t>& record, std::vector<uint8_t>& touched) {
  using sim::Gate;
  FTQC_CHECK(circuit.num_qubits() <= frame.num_qubits(),
             "circuit larger than frame register");
  for (uint32_t q : active_qubits) {
    FTQC_CHECK(q < frame.num_qubits(), "active qubit outside frame register");
  }
  record.clear();
  // An injector that does nothing at storage locations costs no walk over
  // the resting qubits, and `touched` is then left as it was.
  const bool storage = injector.acts_on_storage();
  if (storage) touched.assign(frame.num_qubits(), 0);

  const auto flush_storage = [&] {
    for (uint32_t q : active_qubits) {
      if (!touched[q]) injector.on_storage(frame, q);
    }
    std::fill(touched.begin(), touched.end(), 0);
  };

  for (const sim::Operation& op : circuit.ops()) {
    FTQC_CHECK(op.cond < 0, "gadget circuits cannot use feedforward");
    if (storage) {
      for (uint32_t t : op.targets) touched[t] = 1;
    }
    switch (op.gate) {
      case Gate::TICK:
        if (storage) flush_storage();
        break;
      case Gate::I:
        break;
      case Gate::X:
      case Gate::Y:
      case Gate::Z:
        // Deterministic Paulis shift the reference, not the frame, but the
        // physical gate is still a fault opportunity.
        injector.on_gate1(frame, op.targets[0]);
        break;
      case Gate::H:
        frame.apply_h(op.targets[0]);
        injector.on_gate1(frame, op.targets[0]);
        break;
      case Gate::S:
      case Gate::S_DAG:
        frame.apply_s(op.targets[0]);
        injector.on_gate1(frame, op.targets[0]);
        break;
      case Gate::CX:
        frame.apply_cx(op.targets[0], op.targets[1]);
        injector.on_gate2(frame, op.targets[0], op.targets[1]);
        break;
      case Gate::CZ:
        frame.apply_cz(op.targets[0], op.targets[1]);
        injector.on_gate2(frame, op.targets[0], op.targets[1]);
        break;
      case Gate::SWAP:
        frame.apply_swap(op.targets[0], op.targets[1]);
        injector.on_gate2(frame, op.targets[0], op.targets[1]);
        break;
      case Gate::M:
        injector.on_meas(frame, op.targets[0], /*x_basis=*/false);
        record.push_back(frame.measure_z(op.targets[0]));
        break;
      case Gate::MX:
        injector.on_meas(frame, op.targets[0], /*x_basis=*/true);
        record.push_back(frame.measure_x(op.targets[0]));
        break;
      case Gate::MR:
        injector.on_meas(frame, op.targets[0], /*x_basis=*/false);
        record.push_back(frame.measure_z(op.targets[0]));
        frame.reset(op.targets[0]);
        injector.on_prep(frame, op.targets[0]);
        break;
      case Gate::R:
        frame.reset(op.targets[0]);
        injector.on_prep(frame, op.targets[0]);
        break;
      case Gate::INJECT_X:
        frame.inject_x(op.targets[0]);
        break;
      case Gate::INJECT_Y:
        frame.inject_y(op.targets[0]);
        break;
      case Gate::INJECT_Z:
        frame.inject_z(op.targets[0]);
        break;
      default:
        FTQC_CHECK(false, std::string("run_gadget cannot execute ") +
                              sim::gate_name(op.gate));
    }
  }
}

std::vector<uint8_t> run_gadget(sim::FrameSim& frame,
                                const sim::Circuit& circuit,
                                NoiseInjector& injector,
                                std::span<const uint32_t> active_qubits) {
  std::vector<uint64_t> record;
  std::vector<uint8_t> touched;
  run_gadget(frame, circuit, injector, active_qubits, record, touched);
  return {record.begin(), record.end()};
}

}  // namespace ftqc::ft
