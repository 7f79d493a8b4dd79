#include "ft/generic_recovery.h"

#include <algorithm>
#include <span>

#include "common/check.h"
#include "ft/gadget_runner.h"
#include "ft/steane_circuits.h"

namespace ftqc::ft {

using pauli::PauliString;

void append_controlled_pauli(sim::Circuit& circuit, uint32_t control,
                             uint32_t target, char pauli) {
  switch (pauli) {
    case 'X':
      circuit.cx(control, target);
      break;
    case 'Z':
      circuit.cz(control, target);
      break;
    case 'Y':
      // CY = (I ⊗ S) CX (I ⊗ S†).
      circuit.s_dag(target);
      circuit.cx(control, target);
      circuit.s(target);
      break;
    default:
      FTQC_CHECK(false, "controlled-Pauli expects X, Y or Z");
  }
}

CatExtraction::CatExtraction(const codes::StabilizerCode& code)
    : code(code), decoder(code) {
  const auto n = static_cast<uint32_t>(code.n());
  size_t max_weight = 0;
  for (const auto& g : code.generators()) {
    max_weight = std::max(max_weight, g.weight());
  }
  for (uint32_t q = 0; q < n; ++q) data.push_back(q);
  for (uint32_t i = 0; i < max_weight; ++i) cat.push_back(n + i);
  check = n + static_cast<uint32_t>(max_weight);
  for (uint32_t q = 0; q <= check; ++q) all_qubits.push_back(q);

  uint64_t z_type = 0, x_type = 0;
  for (size_t g = 0; g < code.num_generators(); ++g) {
    const PauliString& generator = code.generators()[g];
    const bool pure_z = !generator.x_part().any();
    if (pure_z) z_type |= uint64_t{1} << g;
    if (!generator.z_part().any()) x_type |= uint64_t{1} << g;

    Generator& out = generators.emplace_back();
    out.width = generator.weight();
    const std::span<const uint32_t> cat_bits(cat.data(), out.width);
    out.prep = cat_prep_with_check(cat_bits, check, /*final_hadamards=*/pure_z);
    if (pure_z) {
      out.readout = shor_syndrome_bit(data, cat_bits, generator.z_part(),
                                      /*x_type=*/false);
      continue;
    }
    size_t a = 0;
    for (uint32_t q = 0; q < n; ++q) {
      const char p = generator.pauli_at(q);
      if (p == 'I') continue;
      append_controlled_pauli(out.readout, cat[a++], q, p);
      out.readout.tick();
    }
    for (const uint32_t c : cat_bits) out.readout.mx(c);
    out.readout.tick();
  }
  const uint64_t all = (uint64_t{1} << code.num_generators()) - 1;
  if (z_type != 0 && x_type != 0 && (z_type | x_type) == all) {
    groups = {z_type, x_type};
  } else {
    groups = {all};
  }
}

bool CatExtraction::logical_error(const PauliString& residual) const {
  const uint64_t syndrome = code.syndrome(residual).to_u64();
  PauliString corrected = residual;
  for (const uint64_t group : groups) {
    corrected.xor_in(decoder.decode(syndrome & group));
  }
  return code.logical_effect(corrected).any();
}

GenericShorRecovery::GenericShorRecovery(const codes::StabilizerCode& code,
                                         const sim::NoiseParams& noise,
                                         RecoveryPolicy policy, uint64_t seed)
    : extraction_(code),
      frame_(extraction_.check + 1, seed),
      policy_(policy),
      stochastic_(noise),
      injector_(&stochastic_) {}

void GenericShorRecovery::reset() {
  frame_.clear();
  cats_discarded_ = 0;
}

void GenericShorRecovery::set_injector(NoiseInjector* injector) {
  injector_ = injector != nullptr ? injector : &stochastic_;
}

void GenericShorRecovery::inject_data(uint32_t q, char pauli) {
  FTQC_CHECK(q < extraction_.data.size(), "data qubit index out of range");
  inject_pauli(frame_, q, pauli);
}

void GenericShorRecovery::apply_memory_noise(double p) {
  for (const uint32_t q : extraction_.data) frame_.depolarize1(q, p);
}

bool GenericShorRecovery::measure_generator(size_t g) {
  const CatExtraction::Generator& circuits = extraction_.generators[g];
  const std::span<const uint32_t> cat(extraction_.cat.data(), circuits.width);
  for (int attempt = 0; attempt < policy_.max_cat_attempts; ++attempt) {
    for (const uint32_t q : cat) frame_.reset(q);
    frame_.reset(extraction_.check);
    const auto record = run_gadget(frame_, circuits.prep, *injector_,
                                   extraction_.all_qubits);
    // Reference check outcome is 0 (the cat bits agree); a flip means the
    // verification failed and the cat is discarded (§3.3). A heralded
    // erasure on a cat qubit is a failure the check bit cannot see — the
    // qubit is maximally mixed — so the herald joins the discard decision.
    bool heralded = false;
    if (policy_.herald_reinit) {
      for (const uint32_t q : cat) heralded = heralded || frame_.is_erased(q);
    }
    const bool failed = (policy_.verify_ancilla && record[0] != 0) || heralded;
    if (!failed) break;
    ++cats_discarded_;
  }
  // An exhausted retry budget uses the last cat unverified.
  const auto flips = run_gadget(frame_, circuits.readout, *injector_,
                                extraction_.all_qubits);
  bool parity = false;
  for (const uint8_t f : flips) parity ^= (f != 0);
  return parity;
}

uint64_t GenericShorRecovery::extract_syndrome(uint64_t group) {
  uint64_t syndrome = 0;
  for (uint64_t rest = group; rest != 0; rest &= rest - 1) {
    const auto g = static_cast<size_t>(__builtin_ctzll(rest));
    if (measure_generator(g)) syndrome |= uint64_t{1} << g;
  }
  return syndrome;
}

void GenericShorRecovery::correct(uint64_t syndrome) {
  // The fix is one layer of Pauli gates over the data block: gate noise
  // (run_gadget's hook order) and the frame shift (the noiseless run never
  // corrects) on each corrected qubit, then storage noise on the rest.
  const PauliString correction = extraction_.decoder.decode(syndrome);
  for (const uint32_t q : extraction_.data) {
    if (correction.pauli_at(q) == 'I') continue;
    injector_->on_gate1(frame_, q);
    if (correction.x_bit(q)) frame_.inject_x(q);
    if (correction.z_bit(q)) frame_.inject_z(q);
  }
  for (const uint32_t q : extraction_.data) {
    if (correction.pauli_at(q) == 'I') injector_->on_storage(frame_, q);
  }
}

void GenericShorRecovery::run_cycle() {
  for (const uint64_t group : extraction_.groups) {
    const uint64_t syndrome = extract_syndrome(group);
    if (syndrome == 0) continue;
    // §3.4: a nontrivial syndrome acts only if a second reading agrees;
    // conflicting readings defer.
    if (policy_.repeat_nontrivial_syndrome &&
        extract_syndrome(group) != syndrome) {
      continue;
    }
    correct(syndrome);
  }
}

PauliString GenericShorRecovery::residual() const {
  PauliString r(extraction_.data.size());
  for (const uint32_t q : extraction_.data) {
    r.set_x(q, frame_.x_frame().get(q));
    r.set_z(q, frame_.z_frame().get(q));
  }
  return r;
}

}  // namespace ftqc::ft
