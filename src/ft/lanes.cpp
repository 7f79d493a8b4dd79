#include "ft/lanes.h"

#include "common/check.h"
#include "ft/gadget_runner.h"

namespace ftqc::ft {

std::span<const uint64_t> BatchLanes::run(
    const sim::Circuit& circuit, std::span<const uint32_t> active_qubits,
    const uint64_t* mask) {
  // The runner clears the record first, so the gadget's rows are rows
  // 0..n-1, stored one after another.
  const auto& rows = gadgets_.run(circuit, active_qubits, mask);
  if (rows.empty()) return {};
  FTQC_DCHECK(rows.front() == 0 && rows.back() + 1 == rows.size(),
              "gadget rows must start a fresh record");
  return {sim_.record().row(0), rows.size() * words()};
}

std::span<const uint64_t> FrameLane::run(
    const sim::Circuit& circuit, std::span<const uint32_t> active_qubits,
    const uint64_t* mask) {
  if (!on(mask)) {
    record_.assign(circuit.num_measurements(), 0);
  } else {
    run_gadget(frame_, circuit, injector_, active_qubits, record_, touched_);
  }
  return record_;
}

uint64_t FrameLane::retry(const sim::Circuit& prep,
                          std::span<const uint32_t> block,
                          std::span<const uint32_t> active_qubits,
                          int attempts, bool check, bool herald,
                          const uint64_t* mask) {
  FTQC_CHECK(attempts >= 1, kRetryNeedsAnAttempt);
  if (!on(mask)) return 0;
  uint64_t failures = 0;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    run_gadget(frame_, prep, injector_, active_qubits, record_, touched_);
    bool failed = false;
    if (check) {
      FTQC_CHECK(record_.size() == 1,
                 "a checked prep must measure exactly the check qubit");
      failed = record_[0] != 0;
    }
    if (herald) {
      for (const uint32_t q : block) failed = failed || frame_.is_erased(q);
    }
    // An exhausted budget keeps the last preparation.
    if (!failed) break;
    ++failures;
  }
  return failures;
}

}  // namespace ftqc::ft
