#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.h"
#include "ft/noise_injector.h"
#include "sim/rare_event.h"

namespace ftqc::ft {

// Exhaustive fault enumeration over a gadget experiment. The experiment is a
// callable that executes one full gadget run against the given injector and
// returns true when the run FAILED (by whatever criterion the experiment
// defines, e.g. "a logical error survives ideal decoding").
//
// This realizes the paper's order-ε analysis: a gadget is fault tolerant
// when no single fault fails it (§3), and its level-1 failure coefficient is
// the weighted count of failing fault *pairs* (Eq. 33's "21").
using GadgetExperiment = std::function<bool(NoiseInjector&)>;

// Which location kinds can fault (mirrors which ε knobs are nonzero). A
// filter must be a pure function of the kind: the rare-event samplers
// (sample_conditioned_fault_sets, calibrate_mean_locations) evaluate it
// once per LocationKind per call, and look every location up in that
// table.
using KindFilter = std::function<bool(LocationKind)>;

[[nodiscard]] inline KindFilter all_kinds() {
  return [](LocationKind) { return true; };
}
[[nodiscard]] inline KindFilter gate_kinds_only() {
  return [](LocationKind k) { return k != LocationKind::kStorage; };
}

// Restricts a scan to part of the gadget. The window [first_location,
// last_location) is expressed in the recorder's location indices; gadget
// drivers publish sub-gadget boundaries as markers (see
// FaultPointInjector::marker_window), so a scan can be aimed at, say, one
// level-2 ancilla preparation ("prep:A".."prep:A:end") or the block of
// interleaved level-1 recoveries ("exrec:A".."exrec:A:end") instead of the
// whole ~50k-location level-2 cycle.
// `location_stride > 1` subsamples every stride-th location for cheap
// smoke-level coverage of a gadget too large to scan exhaustively in a
// unit-tier test.
struct ScanOptions {
  KindFilter filter = all_kinds();
  size_t first_location = 0;
  size_t last_location = SIZE_MAX;
  size_t location_stride = 1;
};

struct SingleFaultScan {
  size_t num_locations = 0;       // fault opportunities on the noiseless path
  size_t faults_tried = 0;        // (location, variant) pairs executed
  size_t faults_failing = 0;      // of those, how many failed the gadget
  double weighted_failing = 0.0;  // Σ variant_weight over failing faults:
                                  // the coefficient of ε¹ in P(fail)
};

[[nodiscard]] SingleFaultScan scan_single_faults(const GadgetExperiment& run,
                                                 const ScanOptions& options);
[[nodiscard]] SingleFaultScan scan_single_faults(const GadgetExperiment& run,
                                                 const KindFilter& filter);

struct PairFaultScan {
  size_t pairs_tried = 0;
  size_t pairs_failing = 0;
  double weighted_failing = 0.0;  // Σ w1·w2 over failing pairs: the ε²
                                  // coefficient (the "A" of p1 = A ε²)
  double weighted_total = 0.0;    // Σ w1·w2 over all pairs (normalization)
};

// Enumerates ordered pairs loc1 < loc2 where loc2 ranges over the execution
// path taken once the first fault is armed (fault-dependent control flow —
// ancilla retries, syndrome repeats — lengthens the path; those locations
// are enumerated too).
[[nodiscard]] PairFaultScan scan_fault_pairs(const GadgetExperiment& run,
                                             const KindFilter& filter);

struct PairSampleScan {
  size_t pairs_sampled = 0;
  size_t pairs_failing = 0;  // malignant pairs among the samples
  [[nodiscard]] double malignant_fraction() const {
    return pairs_sampled > 0
               ? static_cast<double>(pairs_failing) /
                     static_cast<double>(pairs_sampled)
               : 0.0;
  }
  // Interval-carrying form; benches report the Wilson width next to the
  // point estimate instead of a bare fraction.
  [[nodiscard]] Proportion proportion() const {
    return Proportion{pairs_failing, pairs_sampled};
  }
};

// Monte Carlo estimate of the malignant-pair fraction: draws `num_samples`
// ordered fault pairs (location and variant uniform over the options
// window of the RECORDED noiseless path) and replays the gadget with both
// armed. Deterministic for a fixed seed. Exhaustive pair scans over a
// level-2 gadget are ~1e10 runs; sampling inside a marker window makes the
// bare-vs-exRec malignancy comparison affordable. Variants are clamped
// (FaultPointInjector::set_clamp_variants) in case the first fault reroutes
// control flow across the second location; windows that stay inside one
// straight-line sub-gadget are unaffected.
[[nodiscard]] PairSampleScan sample_fault_pairs(const GadgetExperiment& run,
                                                const ScanOptions& options,
                                                size_t num_samples,
                                                uint64_t seed);

// Two-window variant: the first fault is drawn from `first`, the second
// from `second` (windows must be ordered and disjoint: first.last_location
// <= second.first_location). This is how the cross-extraction malignancy of
// the bare level-2 gadget is measured — its failing pairs put one fault in
// EACH of the two ancilla preparations, a region pairing that uniform
// whole-cycle sampling rarely hits.
[[nodiscard]] PairSampleScan sample_fault_pairs(const GadgetExperiment& run,
                                                const ScanOptions& first,
                                                const ScanOptions& second,
                                                size_t num_samples,
                                                uint64_t seed);

// ---------------------------------------------------------------------------
// Rare-event stratum sampling (the importance half of sim/rare_event.h).
//
// Under the §6 model with every ε knob equal, each eligible location of a
// run faults independently with probability ε, so conditioning on the fault
// multiplicity K gives
//
//   P(fail) = Σ_k P_ε(K = k) · P(fail | exactly k faults),
//
// where the conditionals are ε-free and one stratum table serves a whole ε
// sweep. For a FIXED execution path of N locations, P_ε(K = k) is the
// binomial C(N,k) ε^k (1-ε)^(N-k) and sampling a uniform k-subset of the
// noiseless path IS the conditional fault distribution.
//
// Real gadgets retry: a detected fault reroutes control flow (cat-state
// re-preparation, syndrome repeats) and LENGTHENS the path, which breaks
// the fixed-path picture in two measured ways. (1) Funneling: arming
// noiseless-path indices makes later faults land inside the retry windows
// that earlier faults opened, piling multi-fault mass onto the retried
// region and inflating the conditionals (~14x for the level-2 exRec at
// k = 8). (2) Prior mismatch: K under the true process is overdispersed
// relative to any Binomial(N_eff, ε), because the path length itself grows
// with the number of faults. Both biases push the estimate the same
// direction, and no calibrated scalar N_eff fixes them.
//
// The sampler below therefore conditions AT RUNTIME: each proposal shot
// drives the gadget with per-location Bernoulli(q) faults (uniform
// variants, exactly the physical errors FaultPointInjector injects), keeps
// the shots whose realized fault count equals k, and records each kept
// shot's realized path length N_s. Accepted shots are EXACT draws from the
// conditional fault distribution — faults land on the path the gadget
// actually takes. The prior weight comes from the same shots by likelihood
// ratio: since the path is a deterministic function of the per-location
// fault decisions,
//
//   P_ε(K = k) = E_q[ 1{K = k} · (ε/q)^k ((1-ε)/(1-q))^(N_s-k) ],
//
// estimated by averaging the ratio over the raw proposal shots. For a
// fixed-length path this reduces exactly to the binomial above; for an
// adaptive gadget it IS the overdispersed mass the binomial misses.
//
// Within a stratum, N_s correlates with failure (failing configurations
// preferentially open retries), so the conditional is importance-weighted
// by the same per-shot ratio rather than counted: the per-view product
// weight × conditional then equals (ε/q)^k · Σ_fail ratio / raw — the
// plain unbiased importance estimate of P_ε(fail AND K = k). And because
// the shot allocation could re-introduce bias through optional stopping,
// the sweep budgets in two stages: a value-independent pilot, then one
// proportional split computed from the pilot alone (see the .cpp).
// ---------------------------------------------------------------------------

// Recorded fault-opportunity universe of a gadget: the kinds of the full
// noiseless path plus the window locations passing the scan filter. One
// recording pass serves every stratum of every sweep point.
struct FaultUniverse {
  std::vector<LocationKind> kinds;
  std::vector<size_t> eligible;
  [[nodiscard]] size_t size() const { return eligible.size(); }
};

[[nodiscard]] FaultUniverse record_fault_universe(const GadgetExperiment& run,
                                                  const ScanOptions& options);

struct ConditionedSetScan {
  size_t raw_shots = 0;  // proposal replays executed — the true cost
  size_t accepted = 0;   // of those, shots whose realized fault count == k
  size_t accepted_failing = 0;
  // Per accepted shot, in shot order: the realized eligible-location count
  // N_s and whether the gadget failed. Together they feed the likelihood-
  // ratio weight and the importance-weighted conditional.
  std::vector<size_t> accepted_locations;
  std::vector<uint8_t> accepted_failing_mask;
  [[nodiscard]] Proportion proportion() const {
    return Proportion{accepted_failing, accepted};
  }
};

// Runtime-conditioned estimate of P(fail | exactly k faults) for gadgets
// with fault-dependent control flow: each proposal shot replays the gadget
// with independent Bernoulli(q) faults at every filter-passing location
// (uniform variants via the shared inject_*_fault helpers) and is accepted
// when its realized fault count equals k. Accepted shots are exact
// conditional draws over the path the gadget actually takes. Choose q so
// the proposal's modal fault count sits near k (q ≈ k / N_eff); any
// q ∈ (0,1) is correct, q only sets the acceptance rate. Shot i is fully
// determined by seed + seed_stride * (first_shot + i), so chunking cannot
// change the sample. A shot draws from an ftqc::Mt19937_64 seeded with its
// seed (the stream of std::mt19937_64): one draw per fault decision, taken
// as a fault when below proposal_fault_threshold(q), and one per variant.
// A filter without kStorage costs the replay no storage walk.
[[nodiscard]] ConditionedSetScan sample_conditioned_fault_sets(
    const GadgetExperiment& run, const KindFilter& filter, double q, size_t k,
    size_t num_shots, size_t first_shot, uint64_t seed,
    uint64_t seed_stride = 0x9E3779B97F4A7C15ull);

// The smallest 64-bit draw x at which std::uniform_real_distribution<double>
// (0, 1) fed x returns a value >= q, for q in (0, 1). That value never
// decreases with x, so `x < proposal_fault_threshold(q)` is the decision
// `dist(engine) < q` on the same draw, without converting it to double.
[[nodiscard]] uint64_t proposal_fault_threshold(double q);

// Exhaustive companion: every k-subset of the universe crossed with every
// variant assignment, weighted by the product of variant weights. Exact
// P(fail | k) for toy gadgets (the property tests pin the sampled estimator
// against it) and for k <= 1 on real gadgets. Cost is C(N,k) · ~15^k runs —
// keep N tiny for k >= 2.
struct ExhaustiveSetScan {
  size_t sets_tried = 0;
  size_t sets_failing = 0;
  double weighted_failing = 0.0;  // Σ Π variant_weight over failing sets
  double weighted_total = 0.0;    // Σ Π variant_weight over all sets (= C(N,k))
  [[nodiscard]] double conditional_failure() const {
    return weighted_total > 0 ? weighted_failing / weighted_total : 0.0;
  }
};

[[nodiscard]] ExhaustiveSetScan scan_fault_sets(const GadgetExperiment& run,
                                                const FaultUniverse& universe,
                                                size_t k);

// Gadget experiment whose stochastic-noise runs need per-shot seeds (the
// injector carries no RNG of its own; the experiment seeds its FrameSim).
using SeededGadgetExperiment =
    std::function<bool(NoiseInjector&, uint64_t seed)>;

// Mean eligible-location count under the stochastic model at `params`.
// Fault-dependent control flow (ancilla verification retries) lengthens the
// realized path as ε grows, so the binomial prior of a rare-event sweep
// should use this calibrated N_eff rather than the noiseless count when the
// gadget retries. Counts locations passing `filter` while a real
// StochasticInjector drives the noise.
[[nodiscard]] double calibrate_mean_locations(
    const SeededGadgetExperiment& run, const sim::NoiseParams& params,
    const KindFilter& filter, size_t num_shots, uint64_t seed);

// One fully-wired rare-event sweep: strata k = 0..max_faults share a single
// conditional table; every ε point is a view of it. Conditionals come from
// sample_conditioned_fault_sets (runtime Bernoulli proposals at
// q_k = k / N_eff); prior weights start at the Binomial(N_eff, ε) fallback
// and are replaced per stratum by the likelihood-ratio estimate of
// P_ε(K = k) as soon as the stratum has accepted shots, so adaptive-path
// overdispersion is captured where it is measured and conservatively
// bounded (via the tail mass) where it is not. The budget is spent in two
// stages — a deterministic pilot across all live strata, then a single
// proportional split of the remainder driven by the pilot's relative
// interval contributions — so the allocation never feeds back on the shots
// it buys (chunked adaptive routing systematically undershoots with a
// self-reweighting sampler; see the .cpp).
struct RareEventOptions {
  ScanOptions scan;            // eligible-location filter (whole-path only)
  size_t max_faults = 3;       // strata k = 0..max_faults
  size_t budget = 20000;       // raw proposal replays across all strata
  uint64_t seed = 1;
  // Strata 1..known_zero_max_k are pinned to P(fail|k) = 0 — supply only
  // when an exhaustive scan has PROVEN them malignancy-free (e.g. k = 1 on
  // a verified fault-tolerant gadget; with K = 1 total the path up to the
  // fault is the noiseless path, so the noiseless-path scan covers every
  // reachable single-fault configuration). Stratum 0 is auto-pinned by a
  // single noiseless replay (deterministic), checked to not fail.
  size_t known_zero_max_k = 0;
  // Location count steering the proposal probabilities q_k = k / N_eff and
  // the Binomial fallback prior of strata that never accept a shot
  // (calibrated N_eff from calibrate_mean_locations); 0 = the universe's
  // noiseless count. Sampled strata replace the fallback with the
  // likelihood-ratio weight, so this only tunes acceptance rates and the
  // unsampled-tail bound, not the estimate's center. Must be finite and
  // >= 0.
  double n_eff_override = 0;
};

struct RareEventSweep {
  double n_eff = 0;         // N_eff steering proposals and fallback prior
  std::vector<double> eps;  // sweep points, as given
  std::vector<sim::StratifiedEstimate> estimates;  // one per ε
  // Accepted conditional P(fail|k) draws, k = 0..max_faults.
  std::vector<Proportion> strata;
  // Raw proposal replays spent per stratum (cost next to the accepted
  // trials above), and their total.
  std::vector<size_t> raw_shots;
  size_t shots = 0;
};

// `eps_points` must be nonempty, with every eps finite and in [0, 1);
// anything else fails a check before the first replay.
[[nodiscard]] RareEventSweep estimate_rare_failure_sweep(
    const GadgetExperiment& run, const std::vector<double>& eps_points,
    const RareEventOptions& options);

}  // namespace ftqc::ft
