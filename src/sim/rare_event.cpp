#include "sim/rare_event.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"

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
  FTQC_CHECK(weights.size() == strata_.size(),
             "a view needs one weight per stratum: got " +
                 std::to_string(weights.size()) + " weights for " +
                 std::to_string(strata_.size()) + " strata");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  views_.push_back(View{std::move(weights), tail_weight,
                        std::vector<double>(strata_.size(), nan),
                        std::vector<double>(strata_.size(), nan)});
  return views_.size() - 1;
}

void StratifiedEstimator::check_view(size_t view) const {
  FTQC_CHECK(view < views_.size(),
             "view " + std::to_string(view) + " out of range for " +
                 std::to_string(views_.size()) + " views");
}

void StratifiedEstimator::check_stratum(size_t stratum) const {
  FTQC_CHECK(stratum < strata_.size(),
             "stratum " + std::to_string(stratum) + " out of range for " +
                 std::to_string(strata_.size()) + " strata");
}

void StratifiedEstimator::set_weight(size_t view, size_t stratum,
                                     double weight) {
  check_view(view);
  check_stratum(stratum);
  views_[view].weights[stratum] = weight;
}

void StratifiedEstimator::set_conditional(size_t view, size_t stratum,
                                          double mean, double halfwidth) {
  check_view(view);
  check_stratum(stratum);
  views_[view].cond_mean[stratum] = mean;
  views_[view].cond_halfwidth[stratum] = halfwidth;
}

const Stratum& StratifiedEstimator::stratum(size_t index) const {
  check_stratum(index);
  return strata_[index];
}

void StratifiedEstimator::mark_known_zero(size_t stratum) {
  check_stratum(stratum);
  strata_[stratum].known_zero = true;
}

void StratifiedEstimator::add_shots(size_t stratum, size_t shots) {
  check_stratum(stratum);
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
  check_view(view);
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
