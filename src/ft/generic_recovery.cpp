#include "ft/generic_recovery.h"

#include <algorithm>
#include <span>

#include "common/check.h"
#include "ft/batch_recovery.h"
#include "ft/lanes.h"
#include "ft/steane_circuits.h"
#include "sim/simd.h"

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

namespace {

// Writes one syndrome row per generator of `group` (in index order) for the
// lanes of `active`; returns the discarded cats.
template <typename Lanes>
uint64_t extract_cat_syndrome(Lanes& lanes, const CatExtraction& extraction,
                              const RecoveryPolicy& policy, uint64_t group,
                              const uint64_t* active, uint64_t* rows) {
  const size_t words = lanes.words();
  uint64_t discarded = 0;
  for (uint64_t rest = group; rest != 0; rest &= rest - 1, rows += words) {
    const CatExtraction::Generator& circuits =
        extraction.generators[__builtin_ctzll(rest)];
    const std::span<const uint32_t> cat(extraction.cat.data(),
                                        circuits.width);
    // A lane fails a cat when its check bit flips (§3.3) or, with herald
    // reinit, when any cat qubit carries a heralded erasure — a failure the
    // check bit cannot see. An exhausted budget uses the last cat.
    discarded += lanes.retry(circuits.prep, cat, extraction.all_qubits,
                             policy.max_cat_attempts, policy.verify_ancilla,
                             policy.herald_reinit && lanes.may_herald(),
                             active);
    const auto readout =
        lanes.run(circuits.readout, extraction.all_qubits, active);
    FTQC_CHECK(readout.size() == circuits.width * words,
               "generator readout width mismatch");
    // The syndrome bit is the parity of the `width` readout bits.
    std::fill_n(rows, words, 0);
    for (size_t r = 0; r < circuits.width; ++r) {
      sim::simd::xor_into(rows, &readout[r * words], words);
    }
  }
  return discarded;
}

}  // namespace

template <typename Lanes>
uint64_t cat_cycle(Lanes& lanes, const CatExtraction& extraction,
                   const RecoveryPolicy& policy) {
  const size_t words = lanes.words();
  const size_t n = extraction.data.size();
  uint64_t discarded = 0;
  for (const uint64_t group : extraction.groups) {
    run_repeat_policy(
        lanes, static_cast<size_t>(__builtin_popcountll(group)),
        policy.repeat_nontrivial_syndrome, /*active=*/nullptr,
        [&](const uint64_t* mask, uint64_t* out) {
          discarded += extract_cat_syndrome(lanes, extraction, policy, group,
                                            mask, out);
        },
        [&](const uint64_t* syn, const uint64_t* act) {
          if (!lanes.any(act)) return;
          // Each distinct syndrome value decodes once; the fix is one layer
          // of Pauli gates over the data block.
          std::vector<uint64_t> fix_x(n * words), fix_z(n * words);
          for_each_syndrome_value(
              group, syn, act, words,
              [&](uint64_t value, const uint64_t* lanes_reading) {
                batch_add_fix(extraction.decoder.decode(value), lanes_reading,
                              fix_x.data(), fix_z.data(), words);
              });
          apply_fix(lanes, extraction.data, fix_x.data(), fix_z.data(), act);
        });
  }
  return discarded;
}

template uint64_t cat_cycle<BatchLanes>(BatchLanes&, const CatExtraction&,
                                        const RecoveryPolicy&);
template uint64_t cat_cycle<FrameLane>(FrameLane&, const CatExtraction&,
                                       const RecoveryPolicy&);

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

void GenericShorRecovery::run_cycle() {
  FrameLane lane(frame_, *injector_);
  cats_discarded_ += cat_cycle(lane, extraction_, policy_);
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
