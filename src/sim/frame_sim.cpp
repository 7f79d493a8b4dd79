#include "sim/frame_sim.h"

#include <algorithm>

#include "common/check.h"

namespace ftqc::sim {

FrameSim::FrameSim(size_t num_qubits, uint64_t seed)
    : n_(num_qubits), x_(num_qubits), z_(num_qubits),
      leaked_(num_qubits, false), erased_(num_qubits, false), rng_(seed) {}

void FrameSim::clear() {
  x_.clear();
  z_.clear();
  std::fill(leaked_.begin(), leaked_.end(), false);
  std::fill(erased_.begin(), erased_.end(), false);
}

void FrameSim::inject(const pauli::PauliString& p) {
  FTQC_CHECK(p.num_qubits() == n_, "inject size mismatch");
  x_ ^= p.x_part();
  z_ ^= p.z_part();
}

void FrameSim::leak_error(size_t q, double p) {
  check_herald_index(q);
  if (p <= 0) return;
  if (rng_.bernoulli(p)) leaked_[q] = true;
}

void FrameSim::erase_error(size_t q, double p) {
  check_herald_index(q);
  if (p <= 0) return;
  if (!rng_.bernoulli(p)) return;
  erased_[q] = true;
  // Replace-with-mixed is a uniform Pauli twirl in frame space: the frame
  // bits become fresh uniform random, erasing any correlation with the
  // pre-erasure error. One draw per component, matching the gauge idiom.
  x_.set(q, (rng_.next_u64() & 1) != 0);
  z_.set(q, (rng_.next_u64() & 1) != 0);
}

void FrameSim::pauli_channel1(size_t q, double px, double py, double pz) {
  const double total = px + py + pz;
  if (total <= 0) return;
  if (!rng_.bernoulli(total)) return;
  const double u = rng_.next_double() * total;
  if (u < px) {
    inject_x(q);
  } else if (u < px + py) {
    inject_y(q);
  } else {
    inject_z(q);
  }
}

void FrameSim::pauli_channel2(size_t a, size_t b, double p, double fx,
                              double fy) {
  if (p <= 0) return;
  if (!rng_.bernoulli(p)) return;
  // Each qubit draws from weights (1, 3fx, 3fy, 3fz), total 4, conditioned
  // on the pair not being II by rejection. At fx = fy = fz = 1/3 this is
  // exactly the uniform 15-way non-identity draw of DEPOLARIZE2.
  const double wx = 3.0 * fx;
  const double wy = 3.0 * fy;
  const double wz = 3.0 - wx - wy;
  const auto draw_code = [&]() -> uint64_t {
    const double u = rng_.next_double() * 4.0;
    if (u < 1.0) return 0;             // I
    if (u < 1.0 + wx) return 1;        // X
    if (u < 1.0 + wx + wy) return 3;   // Y
    (void)wz;
    return 2;                          // Z
  };
  uint64_t ca = 0, cb = 0;
  do {
    ca = draw_code();
    cb = draw_code();
  } while (ca == 0 && cb == 0);
  inject_code(a, ca);
  inject_code(b, cb);
}

pauli::PauliString FrameSim::frame() const {
  pauli::PauliString p(n_);
  p.x_part() = x_;
  p.z_part() = z_;
  return p;
}

}  // namespace ftqc::sim
