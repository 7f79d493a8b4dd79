#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/stats.h"

namespace ftqc::sim {

// Rare-event measurement by weight-stratified importance sampling.
//
// Direct Monte Carlo starves below failure rates of ~1e-6: the §5 crossover
// claims (and the paper's doubly-exponential suppression story) live far
// below that. This module supplies the generic half of the engine — combine
// per-stratum conditional estimates under a prior — while the
// gadget-specific half (runtime-conditioned sampling of exactly-k-fault
// executions with likelihood-ratio weights, and the budget plan that
// grants each stratum its shots) lives in ft/fault_enumeration. The split
// keeps the layering: sim knows nothing about recovery gadgets, ft reuses
// the estimator for every gadget family.
//
// The estimator realizes
//
//   P(fail) = sum_k w_k * P(fail | stratum k)  (+ tail bias <= tail weight)
//
// where the weights are the prior probabilities of the strata — the
// binomial C(N,k) eps^k (1-eps)^(N-k) for a fixed-length path, or an
// empirically-estimated P(K = k) that the sampler pushes via set_weight()
// as it learns the gadget's realized path-length distribution — and each
// conditional P(fail | k) is a plain Monte Carlo Proportion. Because the
// conditionals are eps-INDEPENDENT, one stratum table serves every eps of a
// sweep: each eps is a "view" carrying its own weight vector.

// P(X = k) for X ~ Binomial(n, p), evaluated in log space so location
// counts of ~1e5 and priors of ~1e-12 neither overflow the binomial
// coefficient nor underflow the power terms. `n` is a double because the
// effective location count of a gadget with fault-dependent control flow is
// a calibrated mean, not an integer.
[[nodiscard]] double binomial_pmf(double n, size_t k, double p);

// One importance stratum: the sampled conditional event proportion, plus a
// "known zero" pin for strata a prior exhaustive analysis has proven can
// never fail (e.g. single faults on a verified fault-tolerant gadget).
// A known-zero stratum contributes neither mean nor interval width and
// add_shots never samples it.
struct Stratum {
  Proportion sampled;
  bool known_zero = false;

  [[nodiscard]] double conditional_mean() const {
    return known_zero ? 0.0 : sampled.mean();
  }
  // Wilson half-width of the conditional; 1.0 (the whole unit interval)
  // while the stratum is unsampled, so unvisited strata surface as
  // maximally uncertain instead of silently "zero".
  [[nodiscard]] double conditional_halfwidth() const {
    return known_zero ? 0.0 : sampled.wilson_halfwidth();
  }
};

// Combined estimate for one view (one eps point of a sweep).
struct StratifiedEstimate {
  double mean = 0;
  // 95% half-width: root-sum-square of the per-stratum w_k * halfwidth_k
  // contributions (independent strata), plus the tail weight in full — the
  // unrepresented prior mass bounds the truncation bias with P(fail|tail)
  // <= 1, so it enters the width linearly, not in quadrature.
  double halfwidth = 1;
  double tail_weight = 0;  // prior mass beyond the last stratum
  size_t shots = 0;        // raw replays consumed across all strata

  [[nodiscard]] double relative_halfwidth() const {
    if (mean <= 0) return std::numeric_limits<double>::infinity();
    return halfwidth / mean;
  }
};

// One sampler grant: the conditional Proportion to merge into the stratum,
// plus the raw number of replays executed to produce it. A sampler that
// conditions by rejection (run a broader proposal, keep only the shots that
// realize exactly k faults) reports accepted trials in `sampled` but paid
// for `raw` replays; the estimator advances both its budget accounting and
// the stratum's first_shot offset by `raw`, so cost stays honest and
// per-shot seeds never repeat across chunks. Samplers that accept every
// shot simply set raw = sampled.trials.
struct StratumChunk {
  Proportion sampled;
  size_t raw = 0;
};

// Samples `num_shots` more replays of one stratum. `first_shot` is the
// stratum's cumulative RAW shot offset, so a sampler deriving per-shot
// seeds from (stratum, first_shot + i) makes the estimate independent of
// chunk boundaries — serial, chunked and parallel execution agree bit for
// bit.
using StratumSampler = std::function<StratumChunk(
    size_t stratum, size_t num_shots, size_t first_shot)>;

class StratifiedEstimator {
 public:
  StratifiedEstimator(size_t num_strata, StratumSampler sampler);

  // Registers a weight vector (one entry per stratum, checked; prior
  // probabilities, need not sum to 1) plus the unrepresented tail mass.
  // Returns the view id handed back to estimate(). Typical sweeps register
  // one view per eps.
  size_t add_view(std::vector<double> weights, double tail_weight = 0);

  // Pins a stratum's conditional to exactly zero (prior exhaustive proof).
  void mark_known_zero(size_t stratum);

  // Replaces one view weight in place. Samplers that LEARN the prior as
  // they go (the likelihood-ratio weights of the runtime-conditioned fault
  // sampler) push refinements here between chunks; estimates pick them up
  // immediately.
  void set_weight(size_t view, size_t stratum, double weight);

  // Overrides one (view, stratum) conditional with a self-normalized
  // importance-weighted estimate. An importance sampler's conditional
  // failing fraction depends on the VIEW through its per-shot likelihood
  // weights (shots with different realized path lengths carry different
  // mass under different eps), so the shared unweighted Proportion would
  // bias the product w * P(fail|k) whenever weight and failure correlate
  // within the stratum. `halfwidth` should already account for the
  // weighting (e.g. a Wilson width at the Kish effective sample size).
  // Known-zero pins still win over an override.
  void set_conditional(size_t view, size_t stratum, double mean,
                       double halfwidth);

  // Samples `shots` more conditional replays of one stratum (a no-op on a
  // known-zero stratum). Callers plan the grants: a sampler that pushes
  // set_weight / set_conditional as it samples must not be driven by
  // chunk-by-chunk feedback on the estimates it is growing, because that
  // optional stopping biases the result low (ft::estimate_rare_failure_sweep
  // grants a pilot first, then one split computed from the pilot alone).
  void add_shots(size_t stratum, size_t shots);

  [[nodiscard]] size_t num_strata() const { return strata_.size(); }
  [[nodiscard]] size_t num_views() const { return views_.size(); }
  [[nodiscard]] const Stratum& stratum(size_t index) const;
  [[nodiscard]] size_t total_shots() const { return total_shots_; }

  [[nodiscard]] StratifiedEstimate estimate(size_t view = 0) const;

 private:
  struct View {
    std::vector<double> weights;
    double tail_weight = 0;
    // Per-stratum conditional overrides (NaN = use the shared Proportion).
    std::vector<double> cond_mean;
    std::vector<double> cond_halfwidth;
  };

  // FTQC_CHECK that `view` names a registered view and `stratum` one of
  // the strata.
  void check_view(size_t view) const;
  void check_stratum(size_t stratum) const;
  // Conditional mean / half-width of one stratum as seen by one view:
  // known-zero pin, then the view's override, then the shared Proportion.
  [[nodiscard]] double view_conditional_mean(size_t view, size_t stratum) const;
  [[nodiscard]] double view_conditional_halfwidth(size_t view,
                                                  size_t stratum) const;

  std::vector<Stratum> strata_;
  std::vector<View> views_;
  StratumSampler sampler_;
  std::vector<size_t> shots_per_stratum_;  // raw; doubles as first_shot offsets
  size_t total_shots_ = 0;
};

}  // namespace ftqc::sim
