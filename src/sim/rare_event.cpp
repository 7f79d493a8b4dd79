#include "sim/rare_event.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace ftqc::sim {

double binomial_pmf(double n, size_t k, double p) {
  const double kd = static_cast<double>(k);
  if (n < kd || p < 0 || p > 1) return 0.0;
  if (p == 0) return k == 0 ? 1.0 : 0.0;
  if (p == 1) return kd == n ? 1.0 : 0.0;
  const double log_choose = std::lgamma(n + 1) - std::lgamma(kd + 1) -
                            std::lgamma(n - kd + 1);
  const double log_pmf =
      log_choose + kd * std::log(p) + (n - kd) * std::log1p(-p);
  return std::exp(log_pmf);
}

StratifiedEstimator::StratifiedEstimator(size_t num_strata,
                                         StratumSampler sampler)
    : strata_(num_strata),
      sampler_(std::move(sampler)),
      shots_per_stratum_(num_strata, 0) {}

size_t StratifiedEstimator::add_view(std::vector<double> weights,
                                     double tail_weight) {
  assert(weights.size() == strata_.size());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  views_.push_back(View{std::move(weights), tail_weight,
                        std::vector<double>(strata_.size(), nan),
                        std::vector<double>(strata_.size(), nan)});
  return views_.size() - 1;
}

void StratifiedEstimator::mark_known_zero(size_t stratum) {
  strata_[stratum].known_zero = true;
}

void StratifiedEstimator::add_shots(size_t stratum, size_t shots) {
  if (shots == 0 || strata_[stratum].known_zero) return;
  const StratumChunk chunk =
      sampler_(stratum, shots, shots_per_stratum_[stratum]);
  strata_[stratum].sampled.successes += chunk.sampled.successes;
  strata_[stratum].sampled.trials += chunk.sampled.trials;
  shots_per_stratum_[stratum] += chunk.raw;
  total_shots_ += chunk.raw;
}

double StratifiedEstimator::view_conditional_mean(size_t view,
                                                  size_t stratum) const {
  if (strata_[stratum].known_zero) return 0.0;
  const double override_mean = views_[view].cond_mean[stratum];
  return std::isnan(override_mean) ? strata_[stratum].conditional_mean()
                                   : override_mean;
}

double StratifiedEstimator::view_conditional_halfwidth(size_t view,
                                                       size_t stratum) const {
  if (strata_[stratum].known_zero) return 0.0;
  const double override_hw = views_[view].cond_halfwidth[stratum];
  return std::isnan(override_hw) ? strata_[stratum].conditional_halfwidth()
                                 : override_hw;
}

StratifiedEstimate StratifiedEstimator::estimate(size_t view) const {
  const View& v = views_[view];
  StratifiedEstimate out;
  out.tail_weight = v.tail_weight;
  out.shots = total_shots_;
  double var = 0;  // sum of squared w_k * halfwidth_k contributions
  for (size_t k = 0; k < strata_.size(); ++k) {
    const double w = v.weights[k];
    out.mean += w * view_conditional_mean(view, k);
    const double contrib = w * view_conditional_halfwidth(view, k);
    var += contrib * contrib;
  }
  out.halfwidth = std::sqrt(var) + v.tail_weight;
  return out;
}

}  // namespace ftqc::sim
