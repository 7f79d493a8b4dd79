#include "ft/fault_enumeration.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sim/shot_runner.h"

namespace ftqc::ft {

SingleFaultScan scan_single_faults(const GadgetExperiment& run,
                                   const ScanOptions& options) {
  FTQC_CHECK(options.location_stride > 0, "location stride must be positive");
  // Recording pass: learn the noiseless path's locations.
  FaultPointInjector recorder;
  (void)run(recorder);
  const std::vector<LocationKind> kinds = recorder.kinds();

  SingleFaultScan scan;
  scan.num_locations = kinds.size();
  const size_t last = std::min(options.last_location, kinds.size());
  for (size_t loc = options.first_location; loc < last;
       loc += options.location_stride) {
    if (!options.filter(kinds[loc])) continue;
    const int variants = location_variants(kinds[loc]);
    for (int v = 0; v < variants; ++v) {
      FaultPointInjector injector({{loc, v}}, /*record_kinds=*/false);
      const bool failed = run(injector);
      ++scan.faults_tried;
      if (failed) {
        ++scan.faults_failing;
        scan.weighted_failing += variant_weight(kinds[loc]);
      }
    }
  }
  return scan;
}

SingleFaultScan scan_single_faults(const GadgetExperiment& run,
                                   const KindFilter& filter) {
  ScanOptions options;
  options.filter = filter;
  return scan_single_faults(run, options);
}

PairFaultScan scan_fault_pairs(const GadgetExperiment& run,
                               const KindFilter& filter) {
  FaultPointInjector recorder;
  (void)run(recorder);
  const std::vector<LocationKind> kinds = recorder.kinds();

  PairFaultScan scan;
  for (size_t loc1 = 0; loc1 < kinds.size(); ++loc1) {
    if (!filter(kinds[loc1])) continue;
    const int variants1 = location_variants(kinds[loc1]);
    for (int v1 = 0; v1 < variants1; ++v1) {
      // Path probe: the armed first fault may change control flow, so the
      // set of later locations is discovered per (loc1, v1).
      FaultPointInjector probe({{loc1, v1}});
      (void)run(probe);
      const std::vector<LocationKind> path_kinds = probe.kinds();
      const double w1 = variant_weight(kinds[loc1]);

      for (size_t loc2 = loc1 + 1; loc2 < path_kinds.size(); ++loc2) {
        if (!filter(path_kinds[loc2])) continue;
        const int variants2 = location_variants(path_kinds[loc2]);
        for (int v2 = 0; v2 < variants2; ++v2) {
          FaultPointInjector injector({{loc1, v1}, {loc2, v2}},
                                      /*record_kinds=*/false);
          const bool failed = run(injector);
          const double w = w1 * variant_weight(path_kinds[loc2]);
          ++scan.pairs_tried;
          scan.weighted_total += w;
          if (failed) {
            ++scan.pairs_failing;
            scan.weighted_failing += w;
          }
        }
      }
    }
  }
  return scan;
}

namespace {

// Window locations passing the kind filter, in order.
std::vector<size_t> eligible_locations(const std::vector<LocationKind>& kinds,
                                       const ScanOptions& options) {
  std::vector<size_t> eligible;
  const size_t last = std::min(options.last_location, kinds.size());
  for (size_t loc = options.first_location; loc < last; ++loc) {
    if (options.filter(kinds[loc])) eligible.push_back(loc);
  }
  return eligible;
}

// Draws (loc1 from pool1) < (loc2 from pool2) pairs with uniform variants
// and replays the gadget with both armed. With pool1 == pool2 any distinct
// ordered pair from the pool is possible.
PairSampleScan sample_pairs_from(const GadgetExperiment& run,
                                 const std::vector<LocationKind>& kinds,
                                 const std::vector<size_t>& pool1,
                                 const std::vector<size_t>& pool2,
                                 size_t num_samples, uint64_t seed) {
  FTQC_CHECK(!pool1.empty() && !pool2.empty(),
             "pair sampling needs nonempty location pools");
  Mt19937_64 rng(seed);
  PairSampleScan scan;
  for (size_t s = 0; s < num_samples; ++s) {
    size_t loc1 = pool1[rng() % pool1.size()];
    size_t loc2 = pool2[rng() % pool2.size()];
    while (loc1 == loc2) loc2 = pool2[rng() % pool2.size()];
    if (loc1 > loc2) std::swap(loc1, loc2);
    const int v1 = static_cast<int>(
        rng() % static_cast<uint64_t>(location_variants(kinds[loc1])));
    const int v2 = static_cast<int>(
        rng() % static_cast<uint64_t>(location_variants(kinds[loc2])));
    FaultPointInjector injector({{loc1, v1}, {loc2, v2}},
                                /*record_kinds=*/false);
    injector.set_clamp_variants(true);
    ++scan.pairs_sampled;
    if (run(injector)) ++scan.pairs_failing;
  }
  return scan;
}

}  // namespace

PairSampleScan sample_fault_pairs(const GadgetExperiment& run,
                                  const ScanOptions& options,
                                  size_t num_samples, uint64_t seed) {
  FaultPointInjector recorder;
  (void)run(recorder);
  const std::vector<LocationKind> kinds = recorder.kinds();
  const std::vector<size_t> eligible = eligible_locations(kinds, options);
  FTQC_CHECK(eligible.size() >= 2, "pair sampling needs >= 2 locations");
  return sample_pairs_from(run, kinds, eligible, eligible, num_samples, seed);
}

PairSampleScan sample_fault_pairs(const GadgetExperiment& run,
                                  const ScanOptions& first,
                                  const ScanOptions& second,
                                  size_t num_samples, uint64_t seed) {
  FTQC_CHECK(first.last_location <= second.first_location,
             "pair-sample windows must be ordered and disjoint");
  FaultPointInjector recorder;
  (void)run(recorder);
  const std::vector<LocationKind> kinds = recorder.kinds();
  const std::vector<size_t> pool1 = eligible_locations(kinds, first);
  const std::vector<size_t> pool2 = eligible_locations(kinds, second);
  return sample_pairs_from(run, kinds, pool1, pool2, num_samples, seed);
}

FaultUniverse record_fault_universe(const GadgetExperiment& run,
                                    const ScanOptions& options) {
  FaultPointInjector recorder;
  (void)run(recorder);
  FaultUniverse universe;
  universe.kinds = recorder.kinds();
  universe.eligible = eligible_locations(universe.kinds, options);
  return universe;
}

namespace {

// A KindFilter's verdict for each LocationKind, indexed by the kind.
using KindTable = std::array<bool, 5>;
static_assert(static_cast<size_t>(LocationKind::kStorage) == 4,
              "KindTable holds one entry per LocationKind");

KindTable kind_table(const KindFilter& filter) {
  KindTable table{};
  for (size_t kind = 0; kind < table.size(); ++kind) {
    table[kind] = filter(static_cast<LocationKind>(kind));
  }
  return table;
}

// Per-location Bernoulli(q) proposal injector for runtime-conditioned
// stratum sampling: every filter-passing location faults independently with
// probability q, with a uniform variant applied through the same
// inject_*_fault helpers FaultPointInjector uses, so the accepted shots of
// sample_conditioned_fault_sets realize exactly the enumerated fault model.
// Counts the eligible locations seen (the realized path length N_s) and the
// faults landed (K_s); locations failing the filter neither fault nor
// count, mirroring the universe restriction of the fixed-path samplers.
// A fault decision takes one draw, compared with proposal_fault_threshold.
class BernoulliFaultInjector final : public NoiseInjector {
 public:
  BernoulliFaultInjector(const KindTable& eligible, uint64_t threshold,
                         uint64_t seed)
      : eligible_(eligible), threshold_(threshold), rng_(seed) {}

  void on_gate1(sim::FrameSim& sim, uint32_t q) override {
    if (step(LocationKind::kGate1)) {
      inject_pauli1_fault(sim, q, variant(3));
    }
  }
  void on_gate2(sim::FrameSim& sim, uint32_t a, uint32_t b) override {
    if (step(LocationKind::kGate2)) {
      inject_pauli2_fault(sim, a, b, variant(15));
    }
  }
  void on_prep(sim::FrameSim& sim, uint32_t q) override {
    if (step(LocationKind::kPrep)) inject_prep_fault(sim, q);
  }
  void on_meas(sim::FrameSim& sim, uint32_t q, bool x_basis) override {
    if (step(LocationKind::kMeas)) inject_meas_fault(sim, q, x_basis);
  }
  void on_storage(sim::FrameSim& sim, uint32_t q) override {
    if (step(LocationKind::kStorage)) {
      inject_pauli1_fault(sim, q, variant(3));
    }
  }
  [[nodiscard]] bool acts_on_storage() const override {
    return eligible_[static_cast<size_t>(LocationKind::kStorage)];
  }

  [[nodiscard]] size_t locations() const { return locations_; }
  [[nodiscard]] size_t faults() const { return faults_; }

 private:
  // Advances the path and decides whether this location faults.
  bool step(LocationKind kind) {
    if (!eligible_[static_cast<size_t>(kind)]) return false;
    ++locations_;
    if (rng_() >= threshold_) return false;
    ++faults_;
    return true;
  }
  int variant(int num_variants) {
    return static_cast<int>(rng_() % static_cast<uint64_t>(num_variants));
  }

  KindTable eligible_;
  uint64_t threshold_;
  Mt19937_64 rng_;
  size_t locations_ = 0;
  size_t faults_ = 0;
};

}  // namespace

// Bisects over the distribution itself, fed one fixed draw per probe. It
// takes exactly one draw and returns it converted to double, scaled by
// 2^-64 and clamped below 1.
uint64_t proposal_fault_threshold(double q) {
  FTQC_CHECK(q > 0.0 && q < 1.0, "proposal probability must lie in (0, 1)");
  struct FixedDraw {
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type x;
    result_type operator()() const { return x; }
  };
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  // dist(lo) < q <= dist(hi) throughout: x = 0 maps to 0, and the largest
  // draw to the largest double below 1.
  uint64_t lo = 0;
  uint64_t hi = FixedDraw::max();
  while (hi - lo > 1) {
    FixedDraw mid{lo + (hi - lo) / 2};
    if (dist(mid) >= q) {
      hi = mid.x;
    } else {
      lo = mid.x;
    }
  }
  return hi;
}

ConditionedSetScan sample_conditioned_fault_sets(
    const GadgetExperiment& run, const KindFilter& filter, double q, size_t k,
    size_t num_shots, size_t first_shot, uint64_t seed, uint64_t seed_stride) {
  const uint64_t threshold = proposal_fault_threshold(q);  // checks q
  const KindTable eligible = kind_table(filter);
  ConditionedSetScan scan;
  scan.raw_shots = num_shots;
  // Serial on purpose: each accepted shot contributes its realized path
  // length, and the acceptance decision needs the injector's state after
  // the run — ShotRunner's bool-only contract doesn't carry either.
  for (size_t i = 0; i < num_shots; ++i) {
    const uint64_t shot_seed = seed + seed_stride * (first_shot + i);
    BernoulliFaultInjector injector(eligible, threshold, shot_seed);
    const bool failed = run(injector);
    if (injector.faults() != k) continue;
    ++scan.accepted;
    if (failed) ++scan.accepted_failing;
    scan.accepted_locations.push_back(injector.locations());
    scan.accepted_failing_mask.push_back(failed ? 1 : 0);
  }
  return scan;
}

ExhaustiveSetScan scan_fault_sets(const GadgetExperiment& run,
                                  const FaultUniverse& universe, size_t k) {
  ExhaustiveSetScan scan;
  const size_t n = universe.size();
  if (k > n) return scan;

  // Enumerates the k-subsets of the NOISELESS path's eligible locations
  // (unlike scan_fault_pairs this does not re-probe rerouted paths, so
  // variants are clamped); intended for toy universes and k <= 1.
  std::vector<size_t> combo(k);
  std::iota(combo.begin(), combo.end(), 0);
  const auto next_combination = [&]() -> bool {
    size_t i = k;
    while (i > 0) {
      --i;
      if (combo[i] != i + n - k) {
        ++combo[i];
        for (size_t j = i + 1; j < k; ++j) combo[j] = combo[j - 1] + 1;
        return true;
      }
    }
    return false;
  };

  std::vector<int> radix(k), variant(k);
  do {
    double weight = 1.0;
    for (size_t i = 0; i < k; ++i) {
      const LocationKind kind = universe.kinds[universe.eligible[combo[i]]];
      radix[i] = location_variants(kind);
      variant[i] = 0;
      weight *= variant_weight(kind);
    }
    bool more = true;
    while (more) {
      std::vector<FaultPointInjector::Fault> faults;
      faults.reserve(k);
      for (size_t i = 0; i < k; ++i) {
        faults.push_back({universe.eligible[combo[i]], variant[i]});
      }
      FaultPointInjector injector(std::move(faults), /*record_kinds=*/false);
      injector.set_clamp_variants(true);
      const bool failed = run(injector);
      ++scan.sets_tried;
      scan.weighted_total += weight;
      if (failed) {
        ++scan.sets_failing;
        scan.weighted_failing += weight;
      }
      more = false;
      for (size_t i = 0; i < k; ++i) {
        if (++variant[i] < radix[i]) {
          more = true;
          break;
        }
        variant[i] = 0;
      }
    }
  } while (next_combination());
  return scan;
}

namespace {

// StochasticInjector that also counts the eligible fault opportunities it
// passes — the measuring stick for the N of the binomial prior when fault-
// dependent control flow stretches the path.
class CountingStochasticInjector final : public NoiseInjector {
 public:
  CountingStochasticInjector(const sim::NoiseParams& params,
                             const KindTable& eligible)
      : noise_(params), eligible_(eligible) {}

  void on_gate1(sim::FrameSim& sim, uint32_t q) override {
    count(LocationKind::kGate1);
    noise_.on_gate1(sim, q);
  }
  void on_gate2(sim::FrameSim& sim, uint32_t a, uint32_t b) override {
    count(LocationKind::kGate2);
    noise_.on_gate2(sim, a, b);
  }
  void on_prep(sim::FrameSim& sim, uint32_t q) override {
    count(LocationKind::kPrep);
    noise_.on_prep(sim, q);
  }
  void on_meas(sim::FrameSim& sim, uint32_t q, bool x_basis) override {
    count(LocationKind::kMeas);
    noise_.on_meas(sim, q, x_basis);
  }
  void on_storage(sim::FrameSim& sim, uint32_t q) override {
    count(LocationKind::kStorage);
    noise_.on_storage(sim, q);
  }

  [[nodiscard]] size_t locations() const { return locations_; }

 private:
  void count(LocationKind kind) {
    if (eligible_[static_cast<size_t>(kind)]) ++locations_;
  }

  StochasticInjector noise_;
  KindTable eligible_;
  size_t locations_ = 0;
};

}  // namespace

double calibrate_mean_locations(const SeededGadgetExperiment& run,
                                const sim::NoiseParams& params,
                                const KindFilter& filter, size_t num_shots,
                                uint64_t seed) {
  FTQC_CHECK(num_shots > 0, "calibration needs at least one shot");
  const KindTable eligible = kind_table(filter);
  size_t total = 0;
  for (size_t s = 0; s < num_shots; ++s) {
    CountingStochasticInjector injector(params, eligible);
    (void)run(injector, seed + 0x9E3779B97F4A7C15ull * s);
    total += injector.locations();
  }
  return static_cast<double>(total) / static_cast<double>(num_shots);
}

RareEventSweep estimate_rare_failure_sweep(const GadgetExperiment& run,
                                           const std::vector<double>& eps_points,
                                           const RareEventOptions& options) {
  // Checked before any replay: a bad point would otherwise spend the whole
  // budget and report NaN (eps outside [0, 1]) or a certainty as zero
  // (eps = 1), and a bad override would silently fall back to N0.
  FTQC_CHECK(!eps_points.empty(), "eps_points must hold at least one eps");
  for (const double eps : eps_points) {
    FTQC_CHECK(std::isfinite(eps) && eps >= 0.0 && eps < 1.0,
               "every eps of eps_points must lie in [0, 1), got " +
                   std::to_string(eps));
  }
  FTQC_CHECK(std::isfinite(options.n_eff_override) &&
                 options.n_eff_override >= 0.0,
             "n_eff_override must be finite and >= 0 (0 = the noiseless "
             "location count), got " +
                 std::to_string(options.n_eff_override));
  // Runtime conditioning drives the whole gadget; a location window would
  // silently mean something different here than in the recorded-path scans.
  FTQC_CHECK(options.scan.first_location == 0 &&
                 options.scan.last_location == SIZE_MAX &&
                 options.scan.location_stride == 1,
             "rare-event sweeps condition over the whole path; location "
             "windows are not supported");
  const FaultUniverse universe = record_fault_universe(run, options.scan);
  FTQC_CHECK(universe.size() > options.max_faults,
             "rare-event sweep needs more locations than strata");
  FTQC_CHECK(options.known_zero_max_k <= options.max_faults,
             "known-zero strata must exist");

  // Stratum 0 is a deterministic replay of the noiseless path; sampling it
  // would charge a Wilson interval for a certainty, so resolve it once and
  // pin it. A failure here means the experiment is broken, not rare.
  {
    FaultPointInjector noiseless({}, /*record_kinds=*/false);
    FTQC_CHECK(!run(noiseless), "gadget fails its noiseless replay");
  }

  const double n0 = static_cast<double>(universe.size());
  const double n_eff = options.n_eff_override > 0 ? options.n_eff_override : n0;
  const size_t num_strata = options.max_faults + 1;
  const size_t num_views = eps_points.size();

  // Proposal fault probability per stratum: q_k = k / N_eff aims the
  // proposal's modal fault count at k. Any value is unbiased (the
  // likelihood ratio uses the q actually sampled); this choice just keeps
  // the exactly-k acceptance rate near its 1/sqrt(2 pi k) optimum.
  std::vector<double> proposal(num_strata, 0.0);
  for (size_t k = 1; k < num_strata; ++k) {
    proposal[k] =
        std::min(static_cast<double>(k) / std::max(n_eff, 1.0), 0.5);
  }

  // View weights start at the Binomial(N_eff, eps) fallback — except k = 0,
  // where P(K = 0) = (1-eps)^{N0} is exact (zero faults leave the noiseless
  // path untouched) — and are replaced by the likelihood-ratio estimate
  //   w_k(eps) = (eps/q_k)^k * mean over raw shots of 1{K=k} r^(N_s - k),
  //   r = (1-eps)/(1-q_k),
  // as strata accept shots. The tail bound stays on the ANALYTIC fallback
  // prior throughout: the empirical weights carry sampling noise of a few
  // parts per thousand, which would masquerade as tail mass if the tail
  // were recomputed as 1 - sum(weights). Choose max_faults so the binomial
  // beyond it is negligible at every view; path-extension overdispersion
  // past the last stratum is then second-order too.
  std::vector<std::vector<double>> weights(
      num_views, std::vector<double>(num_strata, 0.0));
  std::vector<double> tail(num_views, 0.0);
  for (size_t v = 0; v < num_views; ++v) {
    weights[v][0] = sim::binomial_pmf(n0, 0, eps_points[v]);
    double covered = weights[v][0];
    for (size_t k = 1; k < num_strata; ++k) {
      weights[v][k] = sim::binomial_pmf(n_eff, k, eps_points[v]);
      covered += weights[v][k];
    }
    tail[v] = std::max(0.0, 1.0 - covered);
  }

  std::vector<size_t> raw(num_strata, 0);
  std::vector<size_t> accepted(num_strata, 0);
  // Per-(stratum, view) sufficient statistics over accepted shots, with
  // per-shot likelihood weight u_s = r_v^(N_s - k):
  //   lr_sum  = sum u_s            -> the weight estimate,
  //   lr_fail = sum u_s over FAILING shots -> the weighted conditional,
  //   lr_sq   = sum u_s^2          -> Kish effective sample size.
  // The estimator's product w_k * p_k then equals
  //   (eps/q)^k * lr_fail / raw  =  the plain importance estimate of
  // P_eps(fail AND K = k) — exactly unbiased even when the likelihood
  // weight correlates with failure inside the stratum (it does: failing
  // configurations preferentially open retries, changing N_s).
  std::vector<std::vector<double>> lr_sum(num_strata,
                                          std::vector<double>(num_views, 0.0));
  std::vector<std::vector<double>> lr_fail(
      num_strata, std::vector<double>(num_views, 0.0));
  std::vector<std::vector<double>> lr_sq(num_strata,
                                         std::vector<double>(num_views, 0.0));
  std::vector<std::vector<double>> lr_fail_sq(
      num_strata, std::vector<double>(num_views, 0.0));
  // Mirror of the conditional half-widths pushed to the estimator (1.0 =
  // unsampled, the whole unit interval); read back by the stage-2 split.
  std::vector<std::vector<double>> cond_hw(num_strata,
                                           std::vector<double>(num_views, 1.0));

  sim::StratifiedEstimator* est = nullptr;
  const auto sampler = [&](size_t stratum, size_t shots,
                           size_t first_shot) -> sim::StratumChunk {
    sim::ShotPlan base;
    base.seed = options.seed;
    const ConditionedSetScan scan = sample_conditioned_fault_sets(
        run, options.scan.filter, proposal[stratum], stratum, shots,
        first_shot, base.for_stratum(stratum).seed);
    raw[stratum] += scan.raw_shots;
    accepted[stratum] += scan.accepted;
    for (size_t v = 0; v < num_views; ++v) {
      const double log_r =
          std::log1p(-eps_points[v]) - std::log1p(-proposal[stratum]);
      for (size_t s = 0; s < scan.accepted_locations.size(); ++s) {
        const double u = std::exp(
            static_cast<double>(scan.accepted_locations[s] - stratum) * log_r);
        lr_sum[stratum][v] += u;
        lr_sq[stratum][v] += u * u;
        if (scan.accepted_failing_mask[s]) {
          lr_fail[stratum][v] += u;
          lr_fail_sq[stratum][v] += u * u;
        }
      }
    }
    if (est != nullptr && accepted[stratum] > 0) {
      const double n = static_cast<double>(raw[stratum]);
      for (size_t v = 0; v < num_views; ++v) {
        const double log_ratio =
            static_cast<double>(stratum) *
            (std::log(eps_points[v]) - std::log(proposal[stratum]));
        weights[v][stratum] =
            std::exp(log_ratio) * lr_sum[stratum][v] / n;
        est->set_weight(v, stratum, weights[v][stratum]);
        const double mean = lr_fail[stratum][v] / lr_sum[stratum][v];
        const double ess = lr_sum[stratum][v] * lr_sum[stratum][v] /
                           lr_sq[stratum][v];
        // Two half-width estimates for the stratum's CONTRIBUTION w * p,
        // expressed as conditional widths (the estimator multiplies by w):
        //  - Wilson at the Kish effective sample size — nonzero even with
        //    zero observed failures, so unresolved strata stay honestly
        //    wide and keep attracting budget;
        //  - the delta-method width of the unbiased product estimate
        //    (eps/q)^k * lr_fail / raw, whose per-raw-shot variance
        //    lr_fail_sq/n - (lr_fail/n)^2 covers the WEIGHT noise the
        //    conditional-only Wilson width cannot see.
        // Take the max: each underestimates in a regime the other covers.
        const double mean_fail = lr_fail[stratum][v] / n;
        const double var_fail = std::max(
            0.0, lr_fail_sq[stratum][v] / n - mean_fail * mean_fail);
        constexpr double z95 = 1.959963984540054;
        const double product_hw =
            z95 * std::sqrt(var_fail * n) / lr_sum[stratum][v];
        cond_hw[stratum][v] =
            std::max(wilson_halfwidth_at(mean, ess), product_hw);
        est->set_conditional(v, stratum, mean, cond_hw[stratum][v]);
      }
    }
    return sim::StratumChunk{scan.proportion(), scan.raw_shots};
  };

  sim::StratifiedEstimator estimator(num_strata, sampler);
  est = &estimator;
  estimator.mark_known_zero(0);
  for (size_t k = 1; k <= options.known_zero_max_k; ++k) {
    estimator.mark_known_zero(k);
  }
  for (size_t v = 0; v < num_views; ++v) {
    (void)estimator.add_view(weights[v], tail[v]);
  }

  // ---- Stage 1: deterministic pilot --------------------------------------
  // Every live stratum gets a grant sized for roughly kPilotAccepted
  // accepted shots (exactly-k acceptance is ~1/sqrt(2 pi k) at q_k =
  // k/N_eff), floored at an equal 1/8th budget share. The likelihood-ratio
  // weight is heavy-tailed upward — its typical value at a handful of
  // accepted shots sits well BELOW its mean — so a split seeded from a
  // few-shot weight would starve exactly the overdispersed high-k strata
  // this sampler exists to measure. The grants depend only on k and the
  // budget, never on sampled values: stage 2's unbiasedness leans on that.
  constexpr size_t kPilotAccepted = 24;
  constexpr double kTwoPi = 6.283185307179586;
  const size_t first_live = options.known_zero_max_k + 1;
  const size_t num_live = num_strata - first_live;
  const size_t pilot_floor =
      num_live > 0 ? options.budget / (8 * num_live) : 0;
  std::vector<size_t> pilot(num_strata, 0);
  size_t pilot_total = 0;
  for (size_t k = first_live; k < num_strata; ++k) {
    pilot[k] = std::max(
        static_cast<size_t>(std::ceil(
            kPilotAccepted * std::sqrt(kTwoPi * static_cast<double>(k)))),
        pilot_floor);
    pilot_total += pilot[k];
  }
  // Cap the pilot at half the budget (wide stratum ranges would otherwise
  // spend everything warming up); the scale factor depends only on the
  // budget and the stratum count, so the pilot stays value-independent.
  if (pilot_total > options.budget / 2 && pilot_total > 0) {
    const double scale = static_cast<double>(options.budget / 2) /
                         static_cast<double>(pilot_total);
    for (size_t k = first_live; k < num_strata; ++k) {
      pilot[k] = static_cast<size_t>(
          std::max(1.0, std::floor(static_cast<double>(pilot[k]) * scale)));
    }
  }
  for (size_t k = first_live; k < num_strata; ++k) {
    const size_t room = options.budget - estimator.total_shots();
    if (room == 0) break;
    estimator.add_shots(k, std::min(pilot[k], room));
  }

  // ---- Stage 2: one-shot split of the remainder --------------------------
  // Chunk-by-chunk adaptive routing re-reads the estimates it is growing,
  // and with a self-reweighting sampler that optional-stopping feedback is
  // BIASED: a stratum whose interim likelihood-ratio weight fluctuates low
  // is starved and keeps its low estimate, while one that fluctuates high
  // earns shots that regress it back — a systematic undershoot (~13% on the
  // level-1 cycle at eps = 3e-3 with a 16k budget, far outside the reported
  // interval). Instead the remaining budget is split ONCE, proportional to
  // each stratum's largest relative interval contribution as measured by
  // the pilot. The split never sees the shots it buys, so conditioned on
  // the pilot every stage-2 stratum estimate is unbiased; what remains is a
  // second-order pilot-fraction effect, not the first-order feedback bias.
  const size_t remaining = options.budget - estimator.total_shots();
  if (remaining > 0 && num_live > 0) {
    std::vector<double> view_mean(num_views, 0.0);
    for (size_t v = 0; v < num_views; ++v) {
      view_mean[v] = estimator.estimate(v).mean;
    }
    std::vector<double> priority(num_strata, 0.0);
    double total_priority = 0;
    for (size_t k = first_live; k < num_strata; ++k) {
      for (size_t v = 0; v < num_views; ++v) {
        const double contrib = weights[v][k] * cond_hw[k][v];
        if (contrib <= 0) continue;
        // Same relative-width metric the estimator routes on: strata
        // compete on how much of each view's interval they own.
        const double rel =
            view_mean[v] > 0 ? contrib / view_mean[v] : contrib * 1e12;
        priority[k] = std::max(priority[k], rel);
      }
      total_priority += priority[k];
    }
    std::vector<size_t> grant(num_strata, 0);
    if (total_priority > 0) {
      size_t granted = 0;
      size_t top = first_live;
      for (size_t k = first_live; k < num_strata; ++k) {
        grant[k] = static_cast<size_t>(static_cast<double>(remaining) *
                                       priority[k] / total_priority);
        granted += grant[k];
        if (priority[k] > priority[top]) top = k;
      }
      grant[top] += remaining - granted;  // rounding leftover
    } else {
      // Nothing measurable stands out (e.g. every weight is zero at every
      // view) — spread evenly rather than refuse the budget.
      for (size_t k = first_live; k < num_strata; ++k) {
        grant[k] = remaining / num_live;
      }
      grant[first_live] += remaining - (remaining / num_live) * num_live;
    }
    for (size_t k = first_live; k < num_strata; ++k) {
      if (grant[k] > 0) estimator.add_shots(k, grant[k]);
    }
  }

  RareEventSweep sweep;
  sweep.n_eff = n_eff;
  sweep.eps = eps_points;
  sweep.shots = estimator.total_shots();
  for (size_t v = 0; v < num_views; ++v) {
    sweep.estimates.push_back(estimator.estimate(v));
  }
  for (size_t k = 0; k < num_strata; ++k) {
    sweep.strata.push_back(estimator.stratum(k).sampled);
  }
  sweep.raw_shots = raw;
  return sweep;
}

}  // namespace ftqc::ft
