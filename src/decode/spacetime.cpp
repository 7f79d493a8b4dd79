#include "decode/spacetime.h"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace ftqc::decode {

SpacetimeToricDecoder::SpacetimeToricDecoder(
    const topo::ToricCode& code, ToricSide side,
    std::shared_ptr<const MatchingStrategy> strategy, SpacetimeOptions options)
    : code_(code),
      side_(side),
      strategy_(std::move(strategy)),
      options_(options) {
  FTQC_CHECK(strategy_ != nullptr, "matching strategy required");
  FTQC_CHECK(options_.space_weight > 0 && options_.time_weight > 0,
             "edge weights must be positive");
}

gf2::BitVec SpacetimeToricDecoder::decode(
    const std::vector<gf2::BitVec>& syndromes) const {
  const size_t sites = side_ == ToricSide::kPlaquette ? code_.num_plaquettes()
                                                      : code_.num_vertices();
  FTQC_CHECK(!syndromes.empty(), "need at least the final trusted round");

  // Defects are the XOR of consecutive rounds (round -1 is the all-clear
  // reference state). Each defect site carries its round for the time metric.
  // `diff` and `prev` are hoisted and recycled: after streaming round t's
  // defects, prev ^= diff restores prev to syndromes[t] without copying.
  std::vector<uint32_t> defect_site;
  std::vector<uint32_t> defect_round;
  gf2::BitVec prev(sites);
  gf2::BitVec diff(sites);
  for (size_t t = 0; t < syndromes.size(); ++t) {
    FTQC_CHECK(syndromes[t].size() == sites, "syndrome size mismatch");
    diff = syndromes[t];
    diff ^= prev;
    for (size_t s = diff.first_set(); s < sites; s = diff.next_set(s + 1)) {
      defect_site.push_back(static_cast<uint32_t>(s));
      defect_round.push_back(static_cast<uint32_t>(t));
    }
    prev ^= diff;
  }
  return decode_defects(defect_site, defect_round);
}

gf2::BitVec SpacetimeToricDecoder::decode_defects(
    const std::vector<uint32_t>& defect_site,
    const std::vector<uint32_t>& defect_round) const {
  FTQC_CHECK(defect_site.size() == defect_round.size(),
             "defect site/round lists must be parallel");
  FTQC_CHECK(defect_site.size() % 2 == 0,
             "space-time defects come in pairs when the last round is trusted");

  // Pair weights: space_weight x L1 torus distance + time_weight x |Δround|.
  // Each defect's (x, y) is split out once, so the O(n²) pair loop does no
  // division or modulo; only the matcher's strict upper triangle is filled.
  // The buffers are per thread: decode_defects runs concurrently on a shared
  // decoder, and a steady-state decode then allocates nothing here.
  thread_local std::vector<uint32_t> xs, ys;
  thread_local std::vector<size_t> weights;
  const size_t n = defect_site.size();
  const uint32_t l = static_cast<uint32_t>(code_.lattice());
  xs.resize(n);
  ys.resize(n);
  for (size_t k = 0; k < n; ++k) {
    xs[k] = defect_site[k] % l;
    ys[k] = defect_site[k] / l;
  }
  const auto torus_delta = [l](uint32_t a, uint32_t b) {
    const uint32_t d = a > b ? a - b : b - a;
    return std::min(d, l - d);
  };
  weights.resize(n * n);
  for (size_t i = 0; i < n; ++i) {
    size_t* row = weights.data() + i * n;
    for (size_t j = i + 1; j < n; ++j) {
      const uint32_t dt = defect_round[i] > defect_round[j]
                              ? defect_round[i] - defect_round[j]
                              : defect_round[j] - defect_round[i];
      row[j] = options_.space_weight *
                   (torus_delta(xs[i], xs[j]) + torus_delta(ys[i], ys[j])) +
               options_.time_weight * dt;
    }
  }
  const auto matches = strategy_->match(n, weights);
  gf2::BitVec correction(code_.num_qubits());
  for (const Match& m : matches) {
    // Purely time-like pairs (same site) are measurement-error explanations;
    // toggle_*_path is a no-op for them.
    if (side_ == ToricSide::kPlaquette) {
      code_.toggle_dual_path(defect_site[m.a], defect_site[m.b], correction);
    } else {
      code_.toggle_primal_path(defect_site[m.a], defect_site[m.b], correction);
    }
  }
  return correction;
}

PhenomenologicalResult run_phenomenological_memory(
    const SpacetimeToricDecoder& decoder, double data_error, double meas_error,
    size_t rounds, uint64_t seed, PhenomenologicalScratch* scratch) {
  const topo::ToricCode& code = decoder.code();
  const bool plaquette = decoder.side() == ToricSide::kPlaquette;
  const size_t sites =
      plaquette ? code.num_plaquettes() : code.num_vertices();
  Rng rng(seed);

  // All per-shot buffers live in the (caller-provided or local) scratch, so
  // repeated shots of a sweep point allocate nothing after the first.
  PhenomenologicalScratch local;
  PhenomenologicalScratch& s = scratch != nullptr ? *scratch : local;
  if (s.errors.size() != code.num_qubits()) s.errors.resize(code.num_qubits());
  s.errors.clear();
  s.syndromes.resize(rounds + 1);

  const auto syndrome_into = [&](const gf2::BitVec& pattern,
                                 gf2::BitVec& out) {
    if (plaquette) {
      code.plaquette_syndrome_into(pattern, out);
    } else {
      code.star_syndrome_into(pattern, out);
    }
  };
  for (size_t t = 0; t < rounds; ++t) {
    for (size_t e = 0; e < code.num_qubits(); ++e) {
      if (rng.bernoulli(data_error)) s.errors.flip(e);
    }
    gf2::BitVec& measured = s.syndromes[t];
    syndrome_into(s.errors, measured);
    for (size_t site = 0; site < sites; ++site) {
      if (rng.bernoulli(meas_error)) measured.flip(site);
    }
  }
  syndrome_into(s.errors, s.syndromes[rounds]);

  PhenomenologicalResult result;
  s.errors ^= decoder.decode(s.syndromes);  // errors becomes the residual
  syndrome_into(s.errors, s.check);
  result.cleared = !s.check.any();
  const auto [f1, f2] = plaquette ? code.logical_x_flips(s.errors)
                                  : code.logical_z_flips(s.errors);
  result.logical_fail = f1 || f2;
  return result;
}

}  // namespace ftqc::decode
