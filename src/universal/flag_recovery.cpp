#include "universal/flag_recovery.h"

#include "common/check.h"
#include "ft/gadget_runner.h"

namespace ftqc::universal {

using pauli::PauliString;

FlagRecovery::FlagRecovery(const codes::StabilizerCode& code,
                           const sim::NoiseParams& noise,
                           ft::RecoveryPolicy policy, uint64_t seed)
    : extraction_(code),
      frame_(code.n() + 2, seed),
      policy_(policy),
      stochastic_(noise),
      injector_(&stochastic_) {}

void FlagRecovery::reset() {
  frame_.clear();
  flags_raised_ = 0;
}

void FlagRecovery::set_injector(ft::NoiseInjector* injector) {
  injector_ = injector != nullptr ? injector : &stochastic_;
}

void FlagRecovery::inject_data(uint32_t q, char pauli) {
  FTQC_CHECK(q < extraction_.code.n(), "data qubit index out of range");
  ft::inject_pauli(frame_, q, pauli);
}

void FlagRecovery::apply_memory_noise(double p) {
  for (const uint32_t q : extraction_.data) frame_.depolarize1(q, p);
}

bool FlagRecovery::measure_generator(size_t g, bool flagged, bool* flag_fired) {
  const sim::Circuit& gadget =
      flagged ? extraction_.flagged[g] : extraction_.unflagged[g];
  const auto& active =
      flagged ? extraction_.all_qubits : extraction_.noflag_qubits;
  const auto flips = ft::run_gadget(frame_, gadget, *injector_, active);
  if (flagged) {
    FTQC_CHECK(flips.size() == 2, "flagged comb reads ancilla + flag");
    *flag_fired = flips[1] != 0;
  } else {
    FTQC_CHECK(flips.size() == 1, "unflagged comb reads the ancilla");
  }
  frame_.reset(extraction_.ancilla);
  frame_.reset(extraction_.flag);
  return flips[0] != 0;
}

gf2::BitVec FlagRecovery::extract_unflagged() {
  gf2::BitVec syndrome(extraction_.code.num_generators());
  for (size_t g = 0; g < extraction_.code.num_generators(); ++g) {
    syndrome.set(g, measure_generator(g, /*flagged=*/false, nullptr));
  }
  return syndrome;
}

void FlagRecovery::apply_correction(const PauliString& correction) {
  if (correction.is_identity()) return;
  sim::Circuit fix;
  for (size_t q = 0; q < extraction_.code.n(); ++q) {
    switch (correction.pauli_at(q)) {
      case 'X': fix.x(static_cast<uint32_t>(q)); break;
      case 'Y': fix.y(static_cast<uint32_t>(q)); break;
      case 'Z': fix.z(static_cast<uint32_t>(q)); break;
      default: break;
    }
  }
  fix.tick();
  ft::run_gadget(frame_, fix, *injector_, extraction_.data);
  // The correction shifts the reference (the noiseless run never corrects).
  PauliString embedded(frame_.num_qubits());
  for (size_t q = 0; q < extraction_.code.n(); ++q) {
    embedded.set_pauli(q, correction.pauli_at(q));
  }
  frame_.inject(embedded);
}

void FlagRecovery::run_cycle() {
  const size_t num_gen = extraction_.code.num_generators();
  gf2::BitVec syn1(num_gen);
  size_t first_flagged = num_gen;
  for (size_t g = 0; g < num_gen; ++g) {
    bool fired = false;
    syn1.set(g, measure_generator(g, /*flagged=*/true, &fired));
    if (fired) {
      ++flags_raised_;
      if (first_flagged == num_gen) first_flagged = g;
    }
  }
  if (first_flagged < num_gen) {
    // A flag fired: under a single fault the follow-up round is clean, and
    // the flag table of the FIRST fired generator names the hook uniquely.
    const gf2::BitVec syn2 = extract_unflagged();
    const PauliString* flagged = extraction_.table.decode(first_flagged, syn2);
    apply_correction(flagged != nullptr ? *flagged
                                        : extraction_.decoder.decode(syn2));
    return;
  }
  if (!syn1.any()) return;
  if (policy_.repeat_nontrivial_syndrome) {
    const gf2::BitVec again = extract_unflagged();
    if (!(again == syn1)) return;  // conflicting: defer (§3.4)
  }
  apply_correction(extraction_.decoder.decode(syn1));
}

PauliString FlagRecovery::residual() const {
  PauliString r(extraction_.code.n());
  for (size_t q = 0; q < extraction_.code.n(); ++q) {
    r.set_x(q, frame_.x_frame().get(q));
    r.set_z(q, frame_.z_frame().get(q));
  }
  return r;
}

bool FlagRecovery::any_logical_error() const {
  return extraction_.decoder.residual_effect(residual()).any();
}

}  // namespace ftqc::universal
