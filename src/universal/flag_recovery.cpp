#include "universal/flag_recovery.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "ft/batch_recovery.h"
#include "ft/lanes.h"
#include "sim/simd.h"

namespace ftqc::universal {

using pauli::PauliString;

namespace {

template <typename Lanes>
class FlagCycle {
 public:
  FlagCycle(Lanes& lanes, const FlagExtraction& extraction,
            const ft::RecoveryPolicy& policy)
      : lanes_(lanes),
        extraction_(extraction),
        policy_(policy),
        words_(lanes.words()),
        num_gen_(extraction.code.num_generators()),
        all_generators_(~uint64_t{0} >> (64 - num_gen_)) {}

  uint64_t run() {
    // Round 1: flagged combs on every lane.
    uint64_t flags_raised = 0;
    std::vector<uint64_t> syn1(num_gen_ * words_), flag_rows(num_gen_ * words_);
    std::vector<uint64_t> flagged(words_, 0);
    for (size_t g = 0; g < num_gen_; ++g) {
      const auto rows = lanes_.run(extraction_.flagged[g],
                                   extraction_.all_qubits, /*mask=*/nullptr);
      FTQC_CHECK(rows.size() == 2 * words_,
                 "flagged comb reads ancilla + flag");
      std::copy_n(rows.begin(), words_, &syn1[g * words_]);
      std::copy_n(rows.begin() + words_, words_, &flag_rows[g * words_]);
      lanes_.reset(extraction_.ancilla);
      lanes_.reset(extraction_.flag);
      sim::simd::or_into(flagged.data(), &flag_rows[g * words_], words_);
      flags_raised += lanes_.count(&flag_rows[g * words_]);
    }
    if (lanes_.any(flagged.data())) {
      // A flag fired: under a single fault the follow-up round is clean, and
      // the flag table of the FIRST fired generator names the hook uniquely.
      std::vector<uint64_t> syn2(num_gen_ * words_);
      for (size_t g = 0; g < num_gen_; ++g) {
        measure_unflagged(g, flagged.data(), &syn2[g * words_]);
      }
      correct_flagged(flag_rows, syn2.data(), flagged.data());
    }
    // Unflagged lanes: the ordinary §3.4 repeat policy, with round 1's
    // syndrome as the first reading (a shot never re-measures round 1).
    std::vector<uint64_t> unflagged(words_);
    for (size_t w = 0; w < words_; ++w) unflagged[w] = ~flagged[w];
    bool first_call = true;
    ft::run_repeat_policy(
        lanes_, num_gen_, policy_.repeat_nontrivial_syndrome,
        unflagged.data(),
        [&](const uint64_t* mask, uint64_t* out) {
          if (first_call) {
            first_call = false;
            std::copy(syn1.begin(), syn1.end(), out);
            return;
          }
          for (size_t g = 0; g < num_gen_; ++g) {
            measure_unflagged(g, mask, out + g * words_);
          }
        },
        [&](const uint64_t* syn, const uint64_t* act) {
          // Decode through the plain lookup table (no flag fired).
          std::vector<uint64_t> fix_x(extraction_.data.size() * words_);
          std::vector<uint64_t> fix_z(extraction_.data.size() * words_);
          ft::for_each_syndrome_value(
              all_generators_, syn, act, words_,
              [&](uint64_t value, const uint64_t* lanes) {
                ft::batch_add_fix(extraction_.decoder.decode(value), lanes,
                                  fix_x.data(), fix_z.data(), words_);
              });
          apply_fixes(fix_x, fix_z);
        });
    return flags_raised;
  }

 private:
  // One unflagged comb on the lanes of `active`; writes the bit-sliced
  // syndrome bit (words words) into `out`.
  void measure_unflagged(size_t g, const uint64_t* active, uint64_t* out) {
    const auto rows = lanes_.run(extraction_.unflagged[g],
                                 extraction_.noflag_qubits, active);
    FTQC_CHECK(rows.size() == words_, "unflagged comb reads the ancilla");
    std::copy_n(rows.begin(), words_, out);
    lanes_.reset(extraction_.ancilla);
    lanes_.reset(extraction_.flag);
  }

  // apply_fix on the lanes whose correction is not the identity: a lane
  // whose correction is the identity runs no fix circuit at all.
  void apply_fixes(const std::vector<uint64_t>& fix_x,
                   const std::vector<uint64_t>& fix_z) {
    std::vector<uint64_t> fixing(words_, 0);
    for (size_t q = 0; q < extraction_.data.size(); ++q) {
      sim::simd::or_into(fixing.data(), &fix_x[q * words_], words_);
      sim::simd::or_into(fixing.data(), &fix_z[q * words_], words_);
    }
    ft::apply_fix(lanes_, extraction_.data, fix_x.data(), fix_z.data(),
                  fixing.data());
  }

  // Flag-conditioned correction for the lanes of `flagged_mask`: peel the
  // lanes off by FIRST fired generator, then group each generator's lanes
  // by follow-up syndrome; each key decodes once, through the flag table
  // or, for a syndrome outside it (multi-fault), the plain lookup decoder.
  void correct_flagged(const std::vector<uint64_t>& flag_rows,
                       const uint64_t* syndrome_rows,
                       const uint64_t* flagged_mask) {
    const size_t n = extraction_.data.size();
    std::vector<uint64_t> fix_x(n * words_), fix_z(n * words_);
    std::vector<uint64_t> unclaimed(flagged_mask, flagged_mask + words_);
    std::vector<uint64_t> first(words_);
    for (size_t g = 0; g < num_gen_ && lanes_.any(unclaimed.data()); ++g) {
      const uint64_t* fired = &flag_rows[g * words_];
      std::copy(unclaimed.begin(), unclaimed.end(), first.begin());
      sim::simd::and_into(first.data(), fired, words_);
      sim::simd::andnot(unclaimed.data(), unclaimed.data(), fired, words_);
      ft::for_each_syndrome_value(
          all_generators_, syndrome_rows, first.data(), words_,
          [&](uint64_t value, const uint64_t* lanes) {
            const PauliString* flagged = extraction_.table.decode(g, value);
            ft::batch_add_fix(flagged != nullptr
                                  ? *flagged
                                  : extraction_.decoder.decode(value),
                              lanes, fix_x.data(), fix_z.data(), words_);
          });
    }
    apply_fixes(fix_x, fix_z);
  }

  Lanes& lanes_;
  const FlagExtraction& extraction_;
  const ft::RecoveryPolicy& policy_;
  size_t words_;
  size_t num_gen_;
  uint64_t all_generators_;  // bitmask over the code's generators
};

}  // namespace

template <typename Lanes>
uint64_t flag_cycle(Lanes& lanes, const FlagExtraction& extraction,
                    const ft::RecoveryPolicy& policy) {
  return FlagCycle<Lanes>(lanes, extraction, policy).run();
}

template uint64_t flag_cycle<ft::BatchLanes>(ft::BatchLanes&,
                                             const FlagExtraction&,
                                             const ft::RecoveryPolicy&);
template uint64_t flag_cycle<ft::FrameLane>(ft::FrameLane&,
                                            const FlagExtraction&,
                                            const ft::RecoveryPolicy&);

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

void FlagRecovery::run_cycle() {
  ft::FrameLane lane(frame_, *injector_);
  flags_raised_ += flag_cycle(lane, extraction_, policy_);
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
