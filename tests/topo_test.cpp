#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "decode/matching.h"
#include "decode/spacetime.h"
#include "topo/anyon_gates.h"
#include "topo/anyon_sim.h"
#include "topo/perm.h"
#include "topo/suppression.h"
#include "topo/toric_code.h"

namespace ftqc::topo {
namespace {

const A5& group() {
  static const A5 g;
  return g;
}

// Greedy matching of one perfect plaquette snapshot (a one-round trusted
// history): the toric code's ~8% baseline decoder.
gf2::BitVec greedy_plaquette_correction(const ToricCode& code,
                                        const gf2::BitVec& syndrome) {
  static const auto greedy = std::make_shared<const decode::GreedyMatching>();
  return decode::SpacetimeToricDecoder(code, decode::ToricSide::kPlaquette,
                                       greedy)
      .decode({syndrome});
}

TEST(Perm, CycleConstructionAndComposition) {
  const Perm p = Perm::from_cycles({{0, 1, 2}});  // (123)
  EXPECT_EQ(p(0), 1);
  EXPECT_EQ(p(1), 2);
  EXPECT_EQ(p(2), 0);
  EXPECT_EQ(p(3), 3);
  EXPECT_TRUE((p * p * p).is_identity());
  EXPECT_EQ(p.to_string(), "(123)");
}

TEST(Perm, InverseAndConjugation) {
  const Perm p = Perm::from_cycles({{0, 1, 4}});
  EXPECT_TRUE((p * p.inverse()).is_identity());
  // Conjugating a cycle relabels its points by h^{-1} (with the convention
  // g^h = h^{-1} g h): (125)^(234) = (h^{-1}(1), h^{-1}(2), h^{-1}(5)) =
  // (145).
  const Perm h = Perm::from_cycles({{1, 2, 3}});
  const Perm expected = Perm::from_cycles({{0, 3, 4}});
  EXPECT_EQ(p.conjugated_by(h), expected);
}

TEST(Perm, ParityAndCycleType) {
  EXPECT_TRUE(Perm::from_cycles({{0, 1, 2}}).is_even());
  EXPECT_FALSE(Perm::from_cycles({{0, 1}}).is_even());
  EXPECT_TRUE(Perm::from_cycles({{0, 1}, {2, 3}}).is_even());
  EXPECT_EQ(Perm::from_cycles({{0, 1}, {2, 3}}).cycle_type(),
            (std::vector<uint8_t>{2, 2}));
  EXPECT_EQ(Perm::from_cycles({{0, 1, 2, 3, 4}}).cycle_type(),
            (std::vector<uint8_t>{5}));
}

TEST(A5Group, HasOrder60AndIsClosed) {
  EXPECT_EQ(group().order(), 60u);
  // Closure spot check: every pairwise product of the first few elements is
  // in the group (index_of aborts otherwise).
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = 0; j < 10; ++j) {
      (void)group().index_of(group().element(i) * group().element(j));
    }
  }
}

TEST(A5Group, ConjugacyClassSizes) {
  // A5 classes: e(1), (2,2)-type (15), 3-cycles (20), two 5-cycle classes
  // (12 each).
  EXPECT_EQ(group().conjugacy_class(Perm{}).size(), 1u);
  EXPECT_EQ(group().conjugacy_class(Perm::from_cycles({{0, 1}, {2, 3}})).size(),
            15u);
  EXPECT_EQ(group().conjugacy_class(Perm::from_cycles({{0, 1, 2}})).size(), 20u);
  EXPECT_EQ(group().conjugacy_class(Perm::from_cycles({{0, 1, 2, 3, 4}})).size(),
            12u);
}

TEST(A5Group, IsNonsolvable) {
  // §7.4: A5 is the smallest nonsolvable group — its commutator subgroup is
  // all of A5.
  EXPECT_EQ(group().commutator_subgroup().size(), 60u);
}

TEST(A5Group, FiveCyclesConjugateToTheirInverses) {
  // Needed by the Barrington negation gadget.
  const Perm sigma = Perm::from_cycles({{0, 1, 2, 3, 4}});
  EXPECT_TRUE(group().conjugate_in_group(sigma, sigma.inverse()));
}

TEST(ComputationalEncoding, Eq45FluxesAreConjugateThreeCycles) {
  const Perm u0 = computational_u0();
  const Perm u1 = computational_u1();
  EXPECT_EQ(u0.cycle_type(), (std::vector<uint8_t>{3}));
  EXPECT_EQ(u1.cycle_type(), (std::vector<uint8_t>{3}));
  EXPECT_TRUE(group().conjugate_in_group(u0, u1));
  // v = (14)(35) conjugates u0 into u1 and back: the paper's NOT.
  const Perm v = not_conjugator();
  EXPECT_EQ(u0.conjugated_by(v), u1);
  EXPECT_EQ(u1.conjugated_by(v), u0);
}

TEST(AnyonSim, ExchangeImplementsEq40) {
  // |u1>|u2> -> |u2>|u2^{-1} u1 u2>.
  AnyonSim sim(group(), 5);
  const Perm a = Perm::from_cycles({{0, 1, 2}});
  const Perm b = Perm::from_cycles({{0, 1, 2, 3, 4}});
  sim.create_pair(a);
  sim.create_pair(b);
  sim.exchange(0, 1);
  EXPECT_NEAR(std::abs(sim.amplitude({b, a.conjugated_by(b)})), 1.0, 1e-12);
}

TEST(AnyonSim, PullThroughConjugatesInsideFlux) {
  // Eq. (41): the outside pair is unmodified, the inside flux conjugated.
  AnyonSim sim(group(), 6);
  const size_t target = create_computational_pair(sim, false);  // u0
  const size_t vpair = sim.create_pair(not_conjugator());
  sim.pull_through(target, vpair);
  EXPECT_NEAR(sim.flux_probability(target, computational_u1()), 1.0, 1e-12);
  EXPECT_NEAR(sim.flux_probability(vpair, not_conjugator()), 1.0, 1e-12);
}

TEST(AnyonSim, TopologicalNotIsInvolution) {
  AnyonSim sim(group(), 7);
  const size_t q = create_computational_pair(sim, false);
  apply_topological_not(sim, q);
  EXPECT_NEAR(sim.flux_probability(q, computational_u1()), 1.0, 1e-12);
  apply_topological_not(sim, q);
  EXPECT_NEAR(sim.flux_probability(q, computational_u0()), 1.0, 1e-12);
  EXPECT_FALSE(measure_computational_flux(sim, q));
}

TEST(AnyonSim, VacuumPairIsClassSuperposition) {
  AnyonSim sim(group(), 8);
  const size_t p = sim.create_vacuum_pair(computational_u0());
  // 20 three-cycles, each with probability 1/20.
  EXPECT_EQ(sim.support_size(), 20u);
  EXPECT_NEAR(sim.flux_probability(p, computational_u0()), 1.0 / 20, 1e-12);
  EXPECT_NEAR(sim.norm(), 1.0, 1e-12);
  // Flux measurement calibrates the pair (§7.4: building the reservoir).
  const Perm measured = sim.measure_flux(p);
  EXPECT_EQ(measured.cycle_type(), (std::vector<uint8_t>{3}));
  EXPECT_NEAR(sim.flux_probability(p, measured), 1.0, 1e-12);
}

TEST(AnyonSim, ChargeMeasurementCreatesSuperposition) {
  // Fig. 22: projecting a flux eigenstate onto |±>.
  AnyonSim sim(group(), 9);
  const size_t q = create_computational_pair(sim, false);
  const bool minus = measure_computational_charge(sim, q);
  // Either way the pair is now an equal superposition of u0 and u1.
  EXPECT_NEAR(sim.flux_probability(q, computational_u0()), 0.5, 1e-12);
  EXPECT_NEAR(sim.flux_probability(q, computational_u1()), 0.5, 1e-12);
  // A second interferometer read repeats the outcome (projective).
  EXPECT_EQ(measure_computational_charge(sim, q), minus);
}

TEST(AnyonSim, ChargeMeasurementStatisticsOnFluxEigenstate) {
  // <+|u0> = 1/sqrt2: outcomes split evenly over many runs.
  int minus_count = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    AnyonSim sim(group(), 100 + seed);
    const size_t q = create_computational_pair(sim, false);
    minus_count += measure_computational_charge(sim, q) ? 1 : 0;
  }
  EXPECT_GT(minus_count, 15);
  EXPECT_LT(minus_count, 45);
}

TEST(AnyonSim, NotActsCoherentlyOnChargeStates) {
  // |+> is invariant under NOT; |-> picks up a global sign only. Verify via
  // interferometer outcomes being preserved by NOT.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    AnyonSim sim(group(), 200 + seed);
    const size_t q = create_computational_pair(sim, false);
    const bool charge = measure_computational_charge(sim, q);
    apply_topological_not(sim, q);
    EXPECT_EQ(measure_computational_charge(sim, q), charge);
  }
}

TEST(Barrington, CommutatorWitnessExists) {
  const auto [a, b] = find_commutator_witness(group());
  const Perm c = a.inverse() * b.inverse() * a * b;
  EXPECT_EQ(c.cycle_type(), (std::vector<uint8_t>{5}));
}

TEST(Barrington, VariableProgram) {
  const Perm sigma = Perm::from_cycles({{0, 1, 2, 3, 4}});
  const auto p = BranchingProgram::variable(0, sigma);
  EXPECT_FALSE(p.eval({false}));
  EXPECT_TRUE(p.eval({true}));
}

TEST(Barrington, Negation) {
  const Perm sigma = Perm::from_cycles({{0, 1, 2, 3, 4}});
  const auto p = BranchingProgram::negation(
      group(), BranchingProgram::variable(0, sigma));
  EXPECT_TRUE(p.eval({false}));
  EXPECT_FALSE(p.eval({true}));
}

TEST(Barrington, ConjunctionTruthTable) {
  const Perm sigma = Perm::from_cycles({{0, 1, 2, 3, 4}});
  const auto p = BranchingProgram::conjunction(
      group(), BranchingProgram::variable(0, sigma),
      BranchingProgram::variable(1, sigma));
  EXPECT_FALSE(p.eval({false, false}));
  EXPECT_FALSE(p.eval({false, true}));
  EXPECT_FALSE(p.eval({true, false}));
  EXPECT_TRUE(p.eval({true, true}));
}

TEST(Barrington, ToffoliFunctionFromComposedGadgets) {
  // c' = c XOR (a AND b) realized as a Boolean case split computed entirely
  // by conjugation programs: AND(a,b), plus negations for the XOR cases.
  const Perm sigma = Perm::from_cycles({{0, 1, 2, 3, 4}});
  const auto a_and_b = BranchingProgram::conjunction(
      group(), BranchingProgram::variable(0, sigma),
      BranchingProgram::variable(1, sigma));
  // XOR(c, f) = (c AND NOT f) OR (NOT c AND f); build OR from AND/NOT.
  const auto c_var = BranchingProgram::variable(2, sigma);
  const auto not_f = BranchingProgram::negation(group(), a_and_b);
  const auto not_c = BranchingProgram::negation(group(), c_var);
  const auto left = BranchingProgram::conjunction(group(), c_var, not_f);
  const auto right = BranchingProgram::conjunction(group(), not_c, a_and_b);
  // OR(x,y) = NOT(AND(NOT x, NOT y)).
  const auto result = BranchingProgram::negation(
      group(),
      BranchingProgram::conjunction(group(),
                                    BranchingProgram::negation(group(), left),
                                    BranchingProgram::negation(group(), right)));
  for (int in = 0; in < 8; ++in) {
    const bool a = in & 1, b = in & 2, c = in & 4;
    const bool want = c ^ (a && b);
    EXPECT_EQ(result.eval({a, b, c}), want) << "input " << in;
  }
  // The whole computation is a word of conjugation-implementable elements.
  EXPECT_GT(result.length(), 16u);
}

TEST(Barrington, AndGadgetLengthIsFourTimesInputs) {
  const Perm sigma = Perm::from_cycles({{0, 1, 2, 3, 4}});
  const auto p = BranchingProgram::conjunction(
      group(), BranchingProgram::variable(0, sigma),
      BranchingProgram::variable(1, sigma));
  EXPECT_EQ(p.length(), 4u);  // P Q P^{-1} Q^{-1} with unit-length inputs
}

TEST(ToricCode, StabilizersCommute) {
  const ToricCode code(3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      const auto star = code.star_operator(i, j);
      for (size_t x = 0; x < 3; ++x) {
        for (size_t y = 0; y < 3; ++y) {
          EXPECT_TRUE(star.commutes_with(code.plaquette_operator(x, y)));
        }
      }
    }
  }
}

TEST(ToricCode, LogicalOperatorsAnticommuteCorrectly) {
  const ToricCode code(4);
  EXPECT_FALSE(code.logical_z1().commutes_with(code.logical_x1()));
  EXPECT_FALSE(code.logical_z2().commutes_with(code.logical_x2()));
  EXPECT_TRUE(code.logical_z1().commutes_with(code.logical_x2()));
  EXPECT_TRUE(code.logical_z2().commutes_with(code.logical_x1()));
  // Logicals commute with every check.
  for (size_t x = 0; x < 4; ++x) {
    for (size_t y = 0; y < 4; ++y) {
      EXPECT_TRUE(code.logical_z1().commutes_with(code.star_operator(x, y)));
      EXPECT_TRUE(code.logical_x1().commutes_with(code.plaquette_operator(x, y)));
    }
  }
}

// The check-edge table against incidence that does not read it:
// edge_plaquettes and edge_vertices derive an edge's two checks from its
// index alone.
TEST(ToricCode, CheckEdgeTableMatchesIndependentIncidence) {
  for (size_t l = 2; l <= 7; ++l) {
    SCOPED_TRACE(l);
    const ToricCode code(l);
    const size_t sites = l * l;
    for (const bool star : {false, true}) {
      SCOPED_TRACE(star ? "star" : "plaquette");
      const auto& table = star ? code.star_edges() : code.plaquette_edges();
      ASSERT_EQ(table.size(), sites);
      std::vector<std::vector<size_t>> checks_on(code.num_qubits());
      for (size_t s = 0; s < sites; ++s) {
        for (const uint32_t e : table[s]) {
          ASSERT_LT(e, code.num_qubits());
          const auto [a, b] =
              star ? code.edge_vertices(e) : code.edge_plaquettes(e);
          EXPECT_TRUE(a == s || b == s) << "edge " << e << ", check " << s;
          checks_on[e].push_back(s);
        }
      }
      // Every data qubit lies on exactly two checks of the type.
      for (size_t e = 0; e < code.num_qubits(); ++e) {
        ASSERT_EQ(checks_on[e].size(), 2u) << "edge " << e;
        EXPECT_NE(checks_on[e][0], checks_on[e][1]) << "edge " << e;
      }
      // Each extraction layer is one parallel time step: its L² CNOTs touch
      // L² distinct data qubits.
      for (size_t layer = 0; layer < 4; ++layer) {
        std::vector<bool> seen(code.num_qubits(), false);
        size_t distinct = 0;
        for (size_t s = 0; s < sites; ++s) {
          const uint32_t e = table[s][layer];
          distinct += seen[e] ? 0 : 1;
          seen[e] = true;
        }
        EXPECT_EQ(distinct, sites) << "layer " << layer;
      }
    }
  }
}

TEST(ToricCode, SingleXErrorCreatesFluxonPair) {
  const ToricCode code(4);
  gf2::BitVec errors(code.num_qubits());
  errors.set(code.h_edge(1, 1), true);
  const auto syndrome = code.plaquette_syndrome(errors);
  EXPECT_EQ(syndrome.popcount(), 2u);  // Fig. 17: fluxons come in pairs
}

TEST(ToricCode, DecoderClearsSyndromeAndFixesSparseErrors) {
  const ToricCode code(6);
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    gf2::BitVec errors(code.num_qubits());
    for (size_t e = 0; e < code.num_qubits(); ++e) {
      if (rng.bernoulli(0.02)) errors.set(e, true);
    }
    const auto syndrome = code.plaquette_syndrome(errors);
    const auto correction = greedy_plaquette_correction(code, syndrome);
    gf2::BitVec residual = errors;
    residual ^= correction;
    EXPECT_FALSE(code.plaquette_syndrome(residual).any())
        << "decoder left unmatched fluxons";
  }
}

TEST(ToricCode, LogicalFailureDropsWithLatticeSize) {
  // The "intrinsically fault tolerant" claim: below threshold, bigger tori
  // are exponentially safer.
  const double p = 0.04;
  auto failure_rate = [&](size_t l, size_t shots) {
    const ToricCode code(l);
    Rng rng(23 + l);
    size_t failures = 0;
    for (size_t s = 0; s < shots; ++s) {
      gf2::BitVec errors(code.num_qubits());
      for (size_t e = 0; e < code.num_qubits(); ++e) {
        if (rng.bernoulli(p)) errors.set(e, true);
      }
      gf2::BitVec residual = errors;
      residual ^=
          greedy_plaquette_correction(code, code.plaquette_syndrome(errors));
      const auto [f1, f2] = code.logical_x_flips(residual);
      failures += (f1 || f2) ? 1 : 0;
    }
    return static_cast<double>(failures) / static_cast<double>(shots);
  };
  const double small = failure_rate(4, 2000);
  const double large = failure_rate(8, 2000);
  EXPECT_LT(large, small * 0.7);
}

TEST(ToricCode, GroundStatePreparationSatisfiesAllChecks) {
  const ToricCode code(3);
  sim::TableauSim sim(code.num_qubits(), 31);
  code.prepare_ground_state(sim);
  for (size_t x = 0; x < 3; ++x) {
    for (size_t y = 0; y < 3; ++y) {
      bool sign = true;
      EXPECT_TRUE(sim.stabilizes(code.star_operator(x, y), &sign));
      EXPECT_FALSE(sign);
      EXPECT_TRUE(sim.stabilizes(code.plaquette_operator(x, y), &sign));
      EXPECT_FALSE(sign);
    }
  }
}

TEST(ToricCode, AharonovBohmPhaseAroundFluxon) {
  // Fig. 16: a Z loop (transporting an electric charge) encircling one
  // magnetic fluxon measures -1; encircling none measures +1.
  const ToricCode code(3);
  sim::TableauSim sim(code.num_qubits(), 37);
  code.prepare_ground_state(sim);
  // The Z loop around plaquette (1,1) is exactly that plaquette operator;
  // before any error it reads +1.
  const auto loop = code.plaquette_operator(1, 1);
  auto value = sim.peek_pauli(loop);
  ASSERT_TRUE(value.has_value());
  EXPECT_FALSE(*value);
  // Create a fluxon pair with an X on an edge of the (1,1) plaquette.
  sim.apply_x(code.h_edge(1, 1));
  value = sim.peek_pauli(loop);
  ASSERT_TRUE(value.has_value());
  EXPECT_TRUE(*value) << "encircled fluxon must flip the loop's sign";
  // A distant loop still reads +1 (outcome bit 0): the fluxon pair created
  // by X on h(1,1) lives on plaquettes (1,1) and (1,0); loop (2,2) encloses
  // neither.
  auto far = sim.peek_pauli(code.plaquette_operator(2, 2));
  ASSERT_TRUE(far.has_value());
  EXPECT_FALSE(*far);
}

TEST(Suppression, RatesDecayExponentially) {
  const TopologicalMemoryModel model{1.0, 1.0, 1.0};
  // e^{-mL} in separation at T = 0.
  EXPECT_NEAR(model.error_rate(5, 0) / model.error_rate(4, 0), std::exp(-1.0),
              1e-9);
  // e^{-Δ/T} dominates at short separation... at large separation the
  // thermal term is the whole rate.
  const double r1 = model.error_rate(100, 0.5);
  const double r2 = model.error_rate(100, 0.25);
  EXPECT_NEAR(r1 / r2, std::exp(-2.0 + 4.0), 1e-6);  // e^{-2}/e^{-4}
}

TEST(Suppression, PoissonSamplingMatchesSurvival) {
  const TopologicalMemoryModel model{1.0, 1.0, 1.0};
  Rng rng(41);
  const double sep = 3.0, temp = 0.4, time = 5.0;
  const double survival = model.survival_probability(sep, temp, time);
  size_t survived = 0;
  const size_t shots = 20000;
  for (size_t s = 0; s < shots; ++s) {
    survived += model.sample_error_events(sep, temp, time, rng) == 0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(survived) / shots, survival, 0.01);
}

TEST(Suppression, DesignHelpersInvertTheModel) {
  const TopologicalMemoryModel model{2.0, 1.5, 1.0};
  const double sep = model.separation_for_target(1e-9);
  EXPECT_NEAR(model.error_rate(sep, 0), 1e-9, 1e-12);
  const double temp = model.temperature_for_target(1e-9);
  EXPECT_NEAR(std::exp(-model.gap / temp), 1e-9, 1e-12);
}

}  // namespace
}  // namespace ftqc::topo
