#include "sim/noise_model.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"

namespace ftqc::sim {

void NoiseParams::validate() const {
  // Injectors and runners are built per shot or replay on some paths, so the
  // message is only assembled once a check has failed.
  const auto check_rate = [](double p, const char* field) {
    FTQC_CHECK(std::isfinite(p) && p >= 0.0 && p <= 1.0,
               std::string("NoiseParams::") + field +
                   " must be a probability in [0, 1]");
  };
  check_rate(eps_store, "eps_store");
  check_rate(eps_gate1, "eps_gate1");
  check_rate(eps_gate2, "eps_gate2");
  check_rate(eps_meas, "eps_meas");
  check_rate(eps_prep, "eps_prep");
  check_rate(p_leak, "p_leak");
  check_rate(p_erase, "p_erase");
  const auto check_bias = [](double b, const char* field) {
    FTQC_CHECK(std::isfinite(b) && b >= 0.0,
               std::string("NoiseParams::") + field +
                   " must be a finite, non-negative weight");
  };
  check_bias(bias_x, "bias_x");
  check_bias(bias_y, "bias_y");
  check_bias(bias_z, "bias_z");
  FTQC_CHECK(bias_x + bias_y + bias_z > 0.0,
             "NoiseParams::bias_x/bias_y/bias_z must have a positive sum");
}

Circuit add_noise(const Circuit& ideal, const NoiseParams& params) {
  params.validate();
  Circuit noisy(ideal.num_qubits());
  std::vector<bool> touched(ideal.num_qubits(), false);

  // Unbiased params must compile to the exact ops they always did (the
  // pinned RNG streams depend on it); bias reroutes through the
  // PAULI_CHANNEL ops with the same total probability per location.
  const bool biased = params.is_biased();
  const auto noise1 = [&](uint32_t q, double eps) {
    if (biased) {
      noisy.pauli_channel1(q, eps * params.frac_x(), eps * params.frac_y(),
                           eps * params.frac_z());
    } else {
      noisy.depolarize1(q, eps);
    }
  };
  const auto noise2 = [&](uint32_t a, uint32_t b, double eps) {
    if (biased) {
      noisy.pauli_channel2(a, b, eps, params.frac_x(), params.frac_y());
    } else {
      noisy.depolarize2(a, b, eps);
    }
  };

  const auto flush_storage = [&] {
    if (params.eps_store > 0) {
      for (size_t q = 0; q < ideal.num_qubits(); ++q) {
        if (!touched[q]) noise1(static_cast<uint32_t>(q), params.eps_store);
      }
    }
    std::fill(touched.begin(), touched.end(), false);
  };

  for (const Operation& op : ideal.ops()) {
    for (uint32_t t : op.targets) touched[t] = true;
    switch (op.gate) {
      case Gate::TICK:
        noisy.append(Gate::TICK, std::span<const uint32_t>{});
        flush_storage();
        continue;
      case Gate::M:
      case Gate::MR:
        if (params.eps_meas > 0) noisy.x_error(op.targets[0], params.eps_meas);
        break;
      case Gate::MX:
        if (params.eps_meas > 0) noisy.z_error(op.targets[0], params.eps_meas);
        break;
      default:
        break;
    }

    noisy.append(op.gate, op.targets, op.arg, op.cond);

    switch (op.gate) {
      case Gate::X:
      case Gate::Y:
      case Gate::Z:
      case Gate::H:
      case Gate::S:
      case Gate::S_DAG:
      case Gate::RX:
      case Gate::RZ:
        if (params.eps_gate1 > 0) noise1(op.targets[0], params.eps_gate1);
        if (params.p_leak > 0) noisy.leak_error(op.targets[0], params.p_leak);
        if (params.p_erase > 0) noisy.erase_error(op.targets[0],
                                                  params.p_erase);
        break;
      case Gate::I:
        // Explicit I marks a deliberately idle qubit inside a layer; it
        // already receives storage noise at the TICK, not gate noise.
        break;
      case Gate::CX:
      case Gate::CZ:
      case Gate::SWAP:
        if (params.eps_gate2 > 0) {
          noise2(op.targets[0], op.targets[1], params.eps_gate2);
        }
        if (params.p_leak > 0) {
          noisy.leak_error(op.targets[0], params.p_leak);
          noisy.leak_error(op.targets[1], params.p_leak);
        }
        if (params.p_erase > 0) {
          noisy.erase_error(op.targets[0], params.p_erase);
          noisy.erase_error(op.targets[1], params.p_erase);
        }
        break;
      case Gate::CCX:
      case Gate::CCZ:
        FTQC_CHECK(params.is_noiseless(),
                   "stochastic channels for 3-qubit gates are not modelled; "
                   "use fault injection (E12) for Toffoli gadgets");
        break;
      case Gate::R:
      case Gate::MR:
        if (params.eps_prep > 0) noisy.x_error(op.targets[0], params.eps_prep);
        if (params.p_erase > 0) noisy.erase_error(op.targets[0],
                                                  params.p_erase);
        break;
      default:
        break;
    }
  }
  // Note: ops after the final TICK form an unterminated time step and get no
  // storage noise; gadget builders end every step with an explicit TICK.
  return noisy;
}

size_t count_fault_locations(const Circuit& noisy) {
  size_t count = 0;
  for (const Operation& op : noisy.ops()) {
    if (gate_is_channel(op.gate)) ++count;
  }
  return count;
}

}  // namespace ftqc::sim
