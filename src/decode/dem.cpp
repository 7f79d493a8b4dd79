#include "decode/dem.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace ftqc::decode {
namespace {

// Enumeration depth: three rounds, with single faults armed only inside the
// middle one, give the translation-invariant bulk detector classes (round 0
// absorbs "error already present", round 2 catches delayed detections).
constexpr size_t kDemRounds = 3;

}  // namespace

template <class Injector>
void run_extraction_round(sim::FrameSim& sim, Injector& injector,
                          const topo::ToricCode& code, ToricSide side,
                          gf2::BitVec& measured_flips) {
  const size_t sites = code.num_plaquettes();
  FTQC_CHECK(sim.num_qubits() == code.num_qubits() + sites,
             "extraction circuit needs one ancilla per check");
  if (measured_flips.size() != sites) measured_flips.resize(sites);

  const bool plaquette = side == ToricSide::kPlaquette;
  const std::vector<topo::ToricCode::CheckEdges>& checks =
      plaquette ? code.plaquette_edges() : code.star_edges();
  // Check s's ancilla is qubit anc0 + s.
  const auto anc0 = static_cast<uint32_t>(code.num_qubits());
  const auto num_sites = static_cast<uint32_t>(sites);
  for (uint32_t s = 0; s < num_sites; ++s) {
    sim.reset(anc0 + s);
    injector.on_prep(sim, anc0 + s);
  }
  if (!plaquette) {
    for (uint32_t s = 0; s < num_sites; ++s) {
      sim.apply_h(anc0 + s);
      injector.on_gate1(sim, anc0 + s);
    }
  }
  // Four CNOT layers, one per column of the check-edge table.
  for (size_t layer = 0; layer < 4; ++layer) {
    for (uint32_t s = 0; s < num_sites; ++s) {
      const uint32_t data = checks[s][layer];
      const uint32_t anc = anc0 + s;
      if (plaquette) {
        sim.apply_cx(data, anc);
        injector.on_gate2(sim, data, anc);
      } else {
        sim.apply_cx(anc, data);
        injector.on_gate2(sim, anc, data);
      }
    }
  }
  if (!plaquette) {
    for (uint32_t s = 0; s < num_sites; ++s) {
      sim.apply_h(anc0 + s);
      injector.on_gate1(sim, anc0 + s);
    }
  }
  // Resting data qubits take one storage step per round.
  for (uint32_t q = 0; q < anc0; ++q) {
    injector.on_storage(sim, q);
  }
  for (uint32_t s = 0; s < num_sites; ++s) {
    injector.on_meas(sim, anc0 + s, false);
    measured_flips.set(s, sim.measure_z(anc0 + s));
  }
}

template void run_extraction_round<ft::StochasticInjector>(
    sim::FrameSim&, ft::StochasticInjector&, const topo::ToricCode&,
    ToricSide, gf2::BitVec&);
template void run_extraction_round<ft::FaultPointInjector>(
    sim::FrameSim&, ft::FaultPointInjector&, const topo::ToricCode&,
    ToricSide, gf2::BitVec&);

ToricDem ToricDem::build(const topo::ToricCode& code, ToricSide side) {
  return build(code, side, sim::NoiseParams{});
}

ToricDem ToricDem::build(const topo::ToricCode& code, ToricSide side,
                         const sim::NoiseParams& params) {
  const size_t sites = code.num_plaquettes();
  const bool plaquette = side == ToricSide::kPlaquette;

  // Recording pass: learn the location count and the middle round's window.
  ft::FaultPointInjector recorder;
  {
    sim::FrameSim sim(code.num_qubits() + sites, /*seed=*/1);
    gf2::BitVec m(sites);
    for (size_t t = 0; t < kDemRounds; ++t) {
      recorder.on_marker(t == 1 ? "dem:bulk" : "dem:edge");
      run_extraction_round(sim, recorder, code, side, m);
    }
  }
  const auto [win_lo, win_hi] = recorder.marker_window("dem:bulk", "dem:edge");

  ToricDem dem;
  dem.sites_ = sites;
  dem.counts_.locations = win_hi - win_lo;

  // Replay every (location, variant) in the bulk window and read off which
  // detectors fire. Detector d_t = m_t ^ m_{t-1}; the last detector row
  // compares against the trusted syndrome of the residual data frame.
  std::vector<gf2::BitVec> m(kDemRounds, gf2::BitVec(sites));
  gf2::BitVec data_frame(code.num_qubits());
  gf2::BitVec trusted(sites);
  std::vector<std::pair<uint32_t, uint32_t>> fired;  // (site, detector round)
  for (size_t loc = win_lo; loc < win_hi; ++loc) {
    const ft::LocationKind kind = recorder.kinds()[loc];
    const int variants = ft::location_variants(kind);
    for (int v = 0; v < variants; ++v) {
      ft::FaultPointInjector inj({{loc, v}}, /*record_kinds=*/false);
      sim::FrameSim sim(code.num_qubits() + sites, /*seed=*/1);
      for (size_t t = 0; t < kDemRounds; ++t) {
        run_extraction_round(sim, inj, code, side, m[t]);
      }
      for (uint32_t q = 0; q < code.num_qubits(); ++q) {
        data_frame.set(q, plaquette ? sim.x_frame().get(q)
                                    : sim.z_frame().get(q));
      }
      if (plaquette) {
        code.plaquette_syndrome_into(data_frame, trusted);
      } else {
        code.star_syndrome_into(data_frame, trusted);
      }

      fired.clear();
      for (size_t s = 0; s < sites; ++s) {
        bool prev = false;
        for (size_t t = 0; t < kDemRounds; ++t) {
          if (m[t].get(s) != prev) {
            fired.push_back({static_cast<uint32_t>(s),
                             static_cast<uint32_t>(t)});
          }
          prev = m[t].get(s);
        }
        if (trusted.get(s) != prev) {
          fired.push_back({static_cast<uint32_t>(s),
                           static_cast<uint32_t>(kDemRounds)});
        }
      }
      FTQC_CHECK(fired.size() % 2 == 0,
                 "single faults fire detectors in pairs on a torus");
      if (fired.empty()) continue;

      // Decompose the fired set into pairs (min total displacement over the
      // three pairings of four; greedy beyond that) and classify each.
      const auto displacement = [&](size_t a, size_t b) {
        const size_t ds =
            code.torus_site_distance(fired[a].first, fired[b].first);
        const size_t dt = fired[a].second > fired[b].second
                              ? fired[a].second - fired[b].second
                              : fired[b].second - fired[a].second;
        return std::pair<size_t, size_t>{ds, dt};
      };
      const double w =
          params.is_biased()
              ? ft::biased_variant_weight(kind, v, params.frac_x(),
                                          params.frac_y(), params.frac_z())
              : ft::variant_weight(kind);
      const auto classify = [&](size_t a, size_t b) {
        const auto [ds, dt] = displacement(a, b);
        if (ds == 0 && dt == 1) {
          dem.counts_.time += w;
        } else if (ds == 1 && dt == 0) {
          dem.counts_.space += w;
        } else if (ds == 1 && dt == 1) {
          dem.counts_.diag += w;
        } else {
          dem.counts_.far += w;
        }
      };
      std::vector<size_t> order(fired.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      while (order.size() > 2) {
        // Pair the first remaining detector with its nearest partner.
        size_t best = 1;
        size_t best_d = SIZE_MAX;
        for (size_t i = 1; i < order.size(); ++i) {
          const auto [ds, dt] = displacement(order[0], order[i]);
          if (ds + dt < best_d) {
            best_d = ds + dt;
            best = i;
          }
        }
        classify(order[0], order[best]);
        order.erase(order.begin() + static_cast<ptrdiff_t>(best));
        order.erase(order.begin());
      }
      classify(order[0], order[1]);
    }
  }
  return dem;
}

double ToricDem::p_space(double eps) const {
  // 2·L² spatial edges per round (each site borders four, shared two ways);
  // hook mass counts toward both classes.
  return eps * (counts_.space + counts_.diag) /
         (2.0 * static_cast<double>(sites_));
}

double ToricDem::p_time(double eps) const {
  return eps * (counts_.time + counts_.diag) / static_cast<double>(sites_);
}

SpacetimeOptions ToricDem::weights_at(double eps, double scale) const {
  FTQC_CHECK(eps > 0 && eps < 1, "physical fault rate must be in (0, 1)");
  FTQC_CHECK(std::isfinite(scale) && scale > 0,
             "weight scale must be finite and positive");
  const double ps = std::min(0.5, p_space(eps));
  const double pt = std::min(0.5, p_time(eps));
  FTQC_CHECK(ps > 0 && pt > 0,
             "detector error model has an empty edge class");
  // Both products are positive (p <= 0.5); below 2^63 llround cannot
  // overflow.
  const double space = -std::log(ps) * scale;
  const double time = -std::log(pt) * scale;
  FTQC_CHECK(space < 0x1p63 && time < 0x1p63,
             "scaled weights must fit in an integer");
  SpacetimeOptions options;
  options.space_weight =
      static_cast<size_t>(std::max<long long>(1, std::llround(space)));
  options.time_weight =
      static_cast<size_t>(std::max<long long>(1, std::llround(time)));
  return options;
}

PhenomenologicalResult run_circuit_memory(const SpacetimeToricDecoder& decoder,
                                          double eps, size_t rounds,
                                          uint64_t seed,
                                          PhenomenologicalScratch* scratch) {
  return run_circuit_memory(decoder,
                            sim::NoiseParams::uniform_gate(eps, /*eps_store=*/eps),
                            rounds, seed, scratch);
}

PhenomenologicalResult run_circuit_memory(const SpacetimeToricDecoder& decoder,
                                          const sim::NoiseParams& params,
                                          size_t rounds, uint64_t seed,
                                          PhenomenologicalScratch* scratch) {
  const topo::ToricCode& code = decoder.code();
  const bool plaquette = decoder.side() == ToricSide::kPlaquette;
  const size_t sites = code.num_plaquettes();

  PhenomenologicalScratch local;
  PhenomenologicalScratch& s = scratch != nullptr ? *scratch : local;
  s.syndromes.resize(rounds + 1);
  if (s.errors.size() != code.num_qubits()) s.errors.resize(code.num_qubits());

  sim::FrameSim sim(code.num_qubits() + sites, seed);
  ft::StochasticInjector injector(params);
  for (size_t t = 0; t < rounds; ++t) {
    run_extraction_round(sim, injector, code, decoder.side(), s.syndromes[t]);
  }
  // Trusted closing round: the residual data frame read without noise.
  for (uint32_t q = 0; q < code.num_qubits(); ++q) {
    s.errors.set(q, plaquette ? sim.x_frame().get(q) : sim.z_frame().get(q));
  }
  if (plaquette) {
    code.plaquette_syndrome_into(s.errors, s.syndromes[rounds]);
  } else {
    code.star_syndrome_into(s.errors, s.syndromes[rounds]);
  }

  PhenomenologicalResult result;
  s.errors ^= decoder.decode(s.syndromes);  // errors becomes the residual
  if (plaquette) {
    code.plaquette_syndrome_into(s.errors, s.check);
  } else {
    code.star_syndrome_into(s.errors, s.check);
  }
  result.cleared = !s.check.any();
  const auto [f1, f2] = plaquette ? code.logical_x_flips(s.errors)
                                  : code.logical_z_flips(s.errors);
  result.logical_fail = f1 || f2;
  return result;
}

}  // namespace ftqc::decode
