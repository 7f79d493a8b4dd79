// Cross-engine consistency: the exact tableau engine, the Pauli-frame
// sampler, and the bit-parallel batch sampler must tell the same story for a
// shared Clifford circuit — and each engine must be reproducible from its
// seed alone.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "ft/batch_recovery.h"
#include "ft/noise_injector.h"
#include "sim/batch_frame_sim.h"
#include "sim/circuit.h"
#include "sim/frame_sim.h"
#include "sim/noise_model.h"
#include "sim/runner.h"
#include "sim/tableau_sim.h"

namespace ftqc::sim {
namespace {

// A representative 5-qubit Clifford mixing circuit with noise channels and a
// full terminal Z-measurement layer.
Circuit noisy_clifford_circuit() {
  Circuit c(5);
  for (uint32_t q = 0; q < 5; ++q) c.h(q);
  c.cx(0, 1);
  c.cx(2, 3);
  c.cz(1, 2);
  c.swap(3, 4);
  for (uint32_t q = 0; q < 5; ++q) c.depolarize1(q, 0.2);
  c.depolarize2(0, 4, 0.2);
  c.tick();
  c.cx(4, 0);
  for (uint32_t q = 0; q < 5; ++q) c.h(q);
  for (uint32_t q = 0; q < 5; ++q) c.m(q);
  return c;
}

// Self-inverting Clifford circuit with a deterministic Pauli error pattern
// injected at the midpoint. The noiseless version is the identity, so every
// terminal measurement is deterministic (reference outcome 0) and the frame
// flips must reproduce the exact engine's record bit for bit.
Circuit injected_clifford_circuit() {
  Circuit c(5);
  for (uint32_t q = 0; q < 5; ++q) c.h(q);
  c.cx(0, 1);
  c.cx(2, 3);
  c.cz(1, 2);
  c.swap(3, 4);
  c.inject(0, 'X');
  c.inject(2, 'Y');
  c.inject(3, 'Z');
  c.tick();
  c.swap(3, 4);
  c.cz(1, 2);
  c.cx(2, 3);
  c.cx(0, 1);
  for (uint32_t q = 0; q < 5; ++q) c.h(q);
  for (uint32_t q = 0; q < 5; ++q) c.m(q);
  return c;
}

TEST(CrossEngine, TableauSameSeedSameRecord) {
  const Circuit c = noisy_clifford_circuit();
  TableauSim a(5, /*seed=*/1234), b(5, /*seed=*/1234);
  EXPECT_EQ(run_circuit(a, c), run_circuit(b, c));
}

TEST(CrossEngine, FrameSameSeedSameRecord) {
  const Circuit c = noisy_clifford_circuit();
  FrameSim a(5, /*seed=*/77), b(5, /*seed=*/77);
  EXPECT_EQ(run_circuit(a, c), run_circuit(b, c));
}

TEST(CrossEngine, BatchFrameSameSeedSameFlips) {
  Circuit c(5);
  for (uint32_t q = 0; q < 5; ++q) c.h(q);
  c.cx(0, 1);
  c.cz(1, 2);
  for (uint32_t q = 0; q < 5; ++q) c.depolarize1(q, 0.2);
  c.x_error(3, 0.5);
  c.z_error(4, 0.5);

  BatchFrameSim a(5, 256, /*seed=*/99), b(5, 256, /*seed=*/99);
  a.run(c);
  b.run(c);
  for (size_t q = 0; q < 5; ++q) {
    for (size_t shot = 0; shot < 256; ++shot) {
      ASSERT_EQ(a.x_flip(q, shot), b.x_flip(q, shot)) << q << "," << shot;
      ASSERT_EQ(a.z_flip(q, shot), b.z_flip(q, shot)) << q << "," << shot;
    }
  }
}

// With no noise at all, the frame engine must report zero flips regardless of
// seed: the noisy run *is* the reference run.
TEST(CrossEngine, NoiselessFrameRecordIsAllZero) {
  Circuit c = injected_clifford_circuit();
  Circuit clean(5);
  for (const auto& op : c.ops()) {
    if (op.gate == Gate::INJECT_X || op.gate == Gate::INJECT_Y ||
        op.gate == Gate::INJECT_Z) {
      continue;  // strip the injected errors
    }
    clean.append(op.gate, op.targets, op.arg, op.cond);
  }
  for (uint64_t seed : {1ull, 2ull, 983ull}) {
    FrameSim f(5, seed);
    const auto record = run_circuit(f, clean);
    ASSERT_EQ(record.size(), 5u);
    for (uint8_t bit : record) EXPECT_EQ(bit, 0);
  }
}

// The frame record of a deterministically injected error must equal the
// exact engine's record bit for bit: the circuit is self-inverting, so the
// noiseless reference outcome of every measurement is a deterministic 0 and
// the flip IS the outcome. This pins FrameSim's flip semantics (and its
// Pauli propagation) to the tableau engine's.
TEST(CrossEngine, FrameFlipsMatchTableauDifference) {
  const Circuit noisy = injected_clifford_circuit();
  Circuit clean(5);
  for (const auto& op : noisy.ops()) {
    if (op.gate == Gate::INJECT_X || op.gate == Gate::INJECT_Y ||
        op.gate == Gate::INJECT_Z) {
      continue;
    }
    clean.append(op.gate, op.targets, op.arg, op.cond);
  }

  for (uint64_t seed : {5ull, 6ull, 7ull}) {
    TableauSim noisy_sim(5, seed), clean_sim(5, seed);
    const auto noisy_rec = run_circuit(noisy_sim, noisy);
    const auto clean_rec = run_circuit(clean_sim, clean);
    ASSERT_EQ(noisy_rec.size(), clean_rec.size());
    // Sanity: the clean circuit really is the identity on |00000>.
    for (uint8_t bit : clean_rec) ASSERT_EQ(bit, 0);

    FrameSim frame(5, seed);
    const auto flips = run_circuit(frame, noisy);
    ASSERT_EQ(flips.size(), noisy_rec.size());
    for (size_t i = 0; i < flips.size(); ++i) {
      EXPECT_EQ(flips[i], noisy_rec[i]) << "measurement " << i;
    }
    // The injected pattern is not trivial: at least one bit must flip.
    size_t weight = 0;
    for (uint8_t bit : flips) weight += bit;
    EXPECT_GT(weight, 0u);
  }
}

// For a straight-line circuit the batch sampler's destructive flip masks
// must agree with FrameSim's destructive flips when the error pattern is
// deterministic (every shot identical).
TEST(CrossEngine, BatchFlipsMatchFrameSimDestructiveFlips) {
  Circuit c(4);
  for (uint32_t q = 0; q < 4; ++q) c.h(q);
  c.cx(0, 1);
  c.cx(1, 2);
  c.cz(2, 3);
  c.inject(1, 'X');
  c.inject(3, 'Y');

  FrameSim frame(4, /*seed=*/11);
  for (const auto& op : c.ops()) {
    switch (op.gate) {
      case Gate::H: frame.apply_h(op.targets[0]); break;
      case Gate::CX: frame.apply_cx(op.targets[0], op.targets[1]); break;
      case Gate::CZ: frame.apply_cz(op.targets[0], op.targets[1]); break;
      case Gate::INJECT_X: frame.inject_x(op.targets[0]); break;
      case Gate::INJECT_Y: frame.inject_y(op.targets[0]); break;
      case Gate::INJECT_Z: frame.inject_z(op.targets[0]); break;
      default: break;
    }
  }

  BatchFrameSim batch(4, 128, /*seed=*/22);
  batch.run(c);
  for (size_t q = 0; q < 4; ++q) {
    for (size_t shot = 0; shot < 128; ++shot) {
      ASSERT_EQ(batch.x_flip(q, shot), frame.destructive_z_flip(q))
          << q << "," << shot;
      ASSERT_EQ(batch.z_flip(q, shot), frame.destructive_x_flip(q))
          << q << "," << shot;
    }
  }

  // Double injection cancels (flip semantics, matching FrameSim::inject_*).
  Circuit cancel(2);
  cancel.inject(0, 'Y');
  cancel.inject(0, 'Y');
  BatchFrameSim batch2(2, 64, /*seed=*/23);
  batch2.run(cancel);
  EXPECT_FALSE(batch2.x_flip(0, 0));
  EXPECT_FALSE(batch2.z_flip(0, 0));
}

// --- Full gadget replay: BatchFrameSim records --------------------------

// Deterministic gadget exercising the whole replay surface: SWAP, M, MX,
// MR, R and Pauli feedforward. Measurement rows are gauge-independent by
// construction (no qubit is re-measured in the conjugate basis without an
// intervening reset), so every lane and every FrameSim seed must agree.
struct ReplayCircuit {
  Circuit c{4};
  int32_t r0, r1, r2, r3, r4, r5;

  ReplayCircuit() {
    c.inject(0, 'X');
    c.inject(1, 'Y');
    c.swap(0, 1);    // q0 <- Y, q1 <- X
    c.cx(1, 2);      // q2 picks up the X
    r0 = c.m(1);     // flip 1
    c.x(2, r0);      // feedforward: cancels q2's X on the lanes that saw 1
    r1 = c.m(2);     // flip 0
    r2 = c.mr(0);    // flip 1, then reset
    r3 = c.m(0);     // flip 0
    c.r(3);
    c.inject(3, 'Z');
    r4 = c.mx(3);    // flip 1
    c.r(2);
    c.z(2, r4);      // feedforward onto a fresh qubit, read in the X basis
    r5 = c.mx(2);    // flip 1
  }
};

// Executes the replay circuit on a FrameSim by hand (run_circuit rejects
// feedforward for the serial frame engine), pinning the reference semantics
// the batch engine must reproduce.
void frame_replay_record(const Circuit& c, uint64_t seed,
                         std::vector<uint8_t>& record) {
  FrameSim f(c.num_qubits(), seed);
  record.clear();
  for (const auto& op : c.ops()) {
    if (op.cond >= 0) {
      ASSERT_LT(static_cast<size_t>(op.cond), record.size()) << "bad cond";
      if (record[static_cast<size_t>(op.cond)] == 0) continue;
      switch (op.gate) {
        case Gate::X: f.inject_x(op.targets[0]); break;
        case Gate::Y: f.inject_y(op.targets[0]); break;
        case Gate::Z: f.inject_z(op.targets[0]); break;
        default: FAIL() << "non-Pauli feedforward";
      }
      continue;
    }
    switch (op.gate) {
      case Gate::H: f.apply_h(op.targets[0]); break;
      case Gate::S: f.apply_s(op.targets[0]); break;
      case Gate::CX: f.apply_cx(op.targets[0], op.targets[1]); break;
      case Gate::CZ: f.apply_cz(op.targets[0], op.targets[1]); break;
      case Gate::SWAP: f.apply_swap(op.targets[0], op.targets[1]); break;
      case Gate::M: record.push_back(f.measure_z(op.targets[0])); break;
      case Gate::MX: record.push_back(f.measure_x(op.targets[0])); break;
      case Gate::MR:
        record.push_back(f.measure_z(op.targets[0]));
        f.reset(op.targets[0]);
        break;
      case Gate::R: f.reset(op.targets[0]); break;
      case Gate::INJECT_X: f.inject_x(op.targets[0]); break;
      case Gate::INJECT_Y: f.inject_y(op.targets[0]); break;
      case Gate::INJECT_Z: f.inject_z(op.targets[0]); break;
      default: break;
    }
  }
}

// The batch record must match 64 independent FrameSim shots bit for bit.
TEST(CrossEngine, BatchRecordMatchesFrameShots) {
  const ReplayCircuit replay;

  BatchFrameSim batch(4, 64, /*seed=*/5);
  const BatchRecord& record = run_circuit(batch, replay.c);
  ASSERT_EQ(record.size(), 6u);

  for (uint64_t seed = 100; seed < 164; ++seed) {
    std::vector<uint8_t> frame_record;
    frame_replay_record(replay.c, seed, frame_record);
    ASSERT_EQ(frame_record.size(), record.size());
    const size_t shot = static_cast<size_t>(seed - 100);
    for (size_t m = 0; m < record.size(); ++m) {
      EXPECT_EQ(record.bit(m, shot), frame_record[m] != 0)
          << "measurement " << m << ", shot " << shot;
    }
  }
  // Expected flips, spelled out (gauge-free by construction).
  const uint8_t expected[6] = {1, 0, 1, 0, 1, 1};
  for (size_t m = 0; m < 6; ++m) {
    for (size_t shot = 0; shot < 64; ++shot) {
      ASSERT_EQ(record.bit(m, shot), expected[m] != 0) << m << "," << shot;
    }
  }
}

// Same seed, same record — including noise channels and gauge draws.
TEST(CrossEngine, BatchRecordSeedDeterminism) {
  Circuit c(3);
  c.x_error(0, 0.3);
  c.depolarize1(1, 0.4);
  c.m(0);
  c.m(1);
  c.h(2);
  c.depolarize2(1, 2, 0.2);
  c.mx(2);
  c.mr(1);

  BatchFrameSim a(3, 256, /*seed=*/42), b(3, 256, /*seed=*/42);
  BatchFrameSim d(3, 256, /*seed=*/43);
  const BatchRecord& ra = run_circuit(a, c);
  const BatchRecord& rb = run_circuit(b, c);
  const BatchRecord& rd = run_circuit(d, c);
  ASSERT_EQ(ra.size(), rb.size());
  bool differs_from_d = false;
  for (size_t m = 0; m < ra.size(); ++m) {
    for (size_t shot = 0; shot < 256; ++shot) {
      ASSERT_EQ(ra.bit(m, shot), rb.bit(m, shot)) << m << "," << shot;
      differs_from_d |= ra.bit(m, shot) != rd.bit(m, shot);
    }
  }
  EXPECT_TRUE(differs_from_d);
}

// Feedforward keyed on a noisy measurement must cancel the error lane by
// lane: after `M q; X q if flip`, re-measuring reads all-zero flips.
TEST(CrossEngine, BatchFeedforwardCancelsPerLane) {
  Circuit c(1);
  c.x_error(0, 0.5);
  const int32_t r0 = c.m(0);
  c.x(0, r0);
  c.m(0);

  BatchFrameSim batch(1, 4096, /*seed=*/9);
  const BatchRecord& record = run_circuit(batch, c);
  ASSERT_EQ(record.size(), 2u);
  size_t first_hits = 0;
  for (size_t shot = 0; shot < batch.num_shots(); ++shot) {
    first_hits += record.bit(0, shot);
    ASSERT_FALSE(record.bit(1, shot)) << "shot " << shot;
  }
  // The first row really was random (~half the lanes flipped).
  EXPECT_GT(first_hits, batch.num_shots() / 3);
  EXPECT_LT(first_hits, 2 * batch.num_shots() / 3);
}

// Postselection: discarding on a verification bit must mark exactly the
// lanes whose record bit matched, and num_kept must account for them.
TEST(CrossEngine, BatchPostselectionMask) {
  Circuit c(2);
  c.x_error(0, 0.5);
  const int32_t r0 = c.m(0);
  (void)r0;
  BatchFrameSim batch(2, 4096, /*seed=*/13);
  const BatchRecord& record = run_circuit(batch, c);
  batch.discard_where(0, /*value=*/true);

  size_t discarded = 0;
  for (size_t shot = 0; shot < batch.num_shots(); ++shot) {
    EXPECT_EQ(batch.aborted(shot), record.bit(0, shot)) << "shot " << shot;
    discarded += record.bit(0, shot);
  }
  EXPECT_EQ(batch.num_kept(), batch.num_shots() - discarded);
  EXPECT_GT(batch.num_kept(), batch.num_shots() / 3);
  EXPECT_LT(batch.num_kept(), 2 * batch.num_shots() / 3);

  // Discarding on the complementary value aborts everything.
  batch.discard_where(0, /*value=*/false);
  EXPECT_EQ(batch.num_kept(), 0u);
}

// Conditional non-Pauli gates cannot be bit-sliced and must be rejected.
TEST(CrossEngine, BatchRejectsConditionalClifford) {
  Circuit c(2);
  const int32_t r0 = c.m(0);
  c.cx(0, 1, r0);
  BatchFrameSim batch(2, 64, /*seed=*/3);
  EXPECT_DEATH(batch.run(c), "feedforward supports only Pauli");
}

// --- Probability-boundary edge cases ------------------------------------
//
// p = 0 channels must be exact no-ops that consume NO RNG state (the batch
// engine's fill_hit_words already short-circuits; the serial engine used to
// burn a bernoulli draw, desynchronizing the two engines' streams), and
// p >= 1 must not feed log1p(-1) = -inf into the batch geometric skip.

// Observable probe of FrameSim's RNG stream: measure_z burns one gauge draw
// that flips the Z frame half the time, and measure_x reads that frame back.
std::vector<uint8_t> frame_rng_probe(FrameSim& f, int rounds) {
  std::vector<uint8_t> stream;
  for (int i = 0; i < rounds; ++i) {
    (void)f.measure_z(0);
    stream.push_back(f.measure_x(0) ? 1 : 0);
    f.reset(0);
  }
  return stream;
}

TEST(BoundaryChannels, FrameZeroProbabilityConsumesNoRng) {
  FrameSim with_zero(2, /*seed=*/314), plain(2, /*seed=*/314);
  with_zero.depolarize1(0, 0.0);
  with_zero.depolarize2(0, 1, 0.0);
  with_zero.x_error(0, 0.0);
  with_zero.y_error(0, 0.0);
  with_zero.z_error(1, 0.0);
  with_zero.leak_error(0, 0.0);
  // No flips were injected...
  EXPECT_FALSE(with_zero.destructive_z_flip(0));
  EXPECT_FALSE(with_zero.destructive_x_flip(0));
  EXPECT_FALSE(with_zero.destructive_z_flip(1));
  // ...and the RNG stream is exactly where an untouched sim's is.
  EXPECT_EQ(frame_rng_probe(with_zero, 64), frame_rng_probe(plain, 64));
}

TEST(BoundaryChannels, FrameCertainErrorsAreDeterministic) {
  for (uint64_t seed : {1ull, 17ull, 900ull}) {
    FrameSim f(2, seed);
    f.x_error(0, 1.0);
    EXPECT_TRUE(f.destructive_z_flip(0)) << "seed " << seed;
    f.z_error(1, 1.0);
    EXPECT_TRUE(f.destructive_x_flip(1)) << "seed " << seed;
    f.leak_error(0, 1.0);
    // A leaked qubit ignores gates: H would otherwise swap X<->Z.
    f.apply_h(0);
    EXPECT_TRUE(f.destructive_z_flip(0)) << "seed " << seed;
  }
}

TEST(BoundaryChannels, BatchZeroProbabilityConsumesNoRng) {
  // Interleaving p = 0 channels must not shift the stream feeding the
  // genuinely random channel: both circuits see identical lane patterns.
  Circuit with_zero(2), plain(2);
  with_zero.depolarize1(0, 0.0);
  with_zero.x_error(1, 0.0);
  with_zero.depolarize2(0, 1, 0.0);
  with_zero.x_error(0, 0.25);
  plain.x_error(0, 0.25);

  BatchFrameSim a(2, 4096, /*seed=*/55), b(2, 4096, /*seed=*/55);
  a.run(with_zero);
  b.run(plain);
  size_t hits = 0;
  for (size_t shot = 0; shot < 4096; ++shot) {
    ASSERT_EQ(a.x_flip(0, shot), b.x_flip(0, shot)) << "shot " << shot;
    EXPECT_FALSE(a.x_flip(1, shot)) << "shot " << shot;
    hits += a.x_flip(0, shot);
  }
  EXPECT_GT(hits, 0u);  // the p = 0.25 channel really fired
}

TEST(BoundaryChannels, BatchNanProbabilityDies) {
  // NaN passes both the p <= 0 and the p >= 1 guard; unchecked, the
  // geometric walk never reaches the end of the register. A fill at a real
  // rate first, so the NaN arrives with a cached 1/log1p(-p) in place.
  BatchFrameSim batch(2, 128, /*seed=*/9);
  batch.depolarize1(1, 0.01);
  EXPECT_DEATH(batch.x_error(0, std::nan("")), "probability is NaN");
}

// A malformed rate used to read as "no noise" in the serial engine: p <= 0
// returned early and bernoulli(NaN) never fired, so a NaN or negative rate
// silently produced clean frames. Every way noise enters a run now rejects
// it up front, naming the field.
TEST(BoundaryChannels, MalformedNoiseParamsDieAtEveryEntryPoint) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const auto with = [](auto edit) {
    NoiseParams p = NoiseParams::uniform_gate(1e-3);
    edit(p);
    return p;
  };
  const std::vector<std::pair<NoiseParams, const char*>> cases = {
      {NoiseParams::uniform_gate(nan), "eps_gate1"},
      {NoiseParams::uniform_gate(-0.5), "eps_gate1"},
      {with([&](NoiseParams& p) { p.eps_store = nan; }), "eps_store"},
      {with([](NoiseParams& p) { p.eps_meas = 1.5; }), "eps_meas"},
      {with([&](NoiseParams& p) { p.p_erase = inf; }), "p_erase"},
      {with([](NoiseParams& p) { p.p_leak = -1e-9; }), "p_leak"},
      {with([&](NoiseParams& p) { p.bias_x = nan; }), "bias_x"},
      {with([](NoiseParams& p) { p.bias_z = -1.0; }), "bias_z"},
      {with([](NoiseParams& p) { p.bias_x = p.bias_y = p.bias_z = 0.0; }),
       "positive sum"},
  };
  Circuit ideal(2);
  ideal.h(0);
  ideal.cx(0, 1);
  for (const auto& [params, field] : cases) {
    EXPECT_DEATH(params.validate(), field);
    EXPECT_DEATH((void)add_noise(ideal, params), field);
    EXPECT_DEATH(ft::StochasticInjector injector(params), field);
    BatchFrameSim batch(2, 64, /*seed=*/3);
    EXPECT_DEATH(ft::BatchGadgetRunner runner(batch, params), field);
  }
  // The closed ends of every range stay legal.
  NoiseParams edge = NoiseParams::uniform_gate(1.0, 0.0);
  edge.p_erase = 1.0;
  edge.bias_x = edge.bias_y = 0.0;
  edge.validate();
  (void)add_noise(ideal, edge);
}

TEST(BoundaryChannels, BatchCertainHitFillsEveryLane) {
  // p >= 1 must terminate (no -inf geometric skip) and hit every lane.
  Circuit c(2);
  c.x_error(0, 1.0);
  c.depolarize1(1, 1.0);
  BatchFrameSim batch(2, 1000, /*seed=*/7);
  batch.run(c);
  for (size_t shot = 0; shot < batch.num_shots(); ++shot) {
    EXPECT_TRUE(batch.x_flip(0, shot)) << "shot " << shot;
    // A certain depolarization lands SOME Pauli on every lane.
    EXPECT_TRUE(batch.x_flip(1, shot) || batch.z_flip(1, shot))
        << "shot " << shot;
  }
}

TEST(BoundaryChannels, EnginesAgreeAtBoundaries) {
  // At p = 0 and p = 1 the hit pattern is deterministic, so the serial and
  // batch engines must agree shot for shot with no seed coordination.
  Circuit c(2);
  c.x_error(0, 0.0);
  c.x_error(1, 1.0);
  BatchFrameSim batch(2, 128, /*seed=*/101);
  batch.run(c);
  FrameSim frame(2, /*seed=*/202);
  frame.x_error(0, 0.0);
  frame.x_error(1, 1.0);
  for (size_t shot = 0; shot < 128; ++shot) {
    ASSERT_EQ(batch.x_flip(0, shot), frame.destructive_z_flip(0));
    ASSERT_EQ(batch.x_flip(1, shot), frame.destructive_z_flip(1));
  }
}

// Different seeds must (overwhelmingly) produce different records on a
// random-outcome circuit — guards against an RNG that ignores its seed.
TEST(CrossEngine, DifferentSeedsDiverge) {
  Circuit c(8);
  for (uint32_t q = 0; q < 8; ++q) c.h(q);
  for (uint32_t q = 0; q < 8; ++q) c.m(q);

  // 8 random bits collide with probability 2^-8 per pair; run three rounds so
  // a spurious failure is ~2^-24.
  std::vector<uint8_t> rec_a, rec_b;
  for (int round = 0; round < 3; ++round) {
    TableauSim fresh_a(8, static_cast<uint64_t>(round) * 2 + 1);
    TableauSim fresh_b(8, static_cast<uint64_t>(round) * 2 + 2);
    const auto ra = run_circuit(fresh_a, c);
    const auto rb = run_circuit(fresh_b, c);
    rec_a.insert(rec_a.end(), ra.begin(), ra.end());
    rec_b.insert(rec_b.end(), rb.begin(), rb.end());
  }
  EXPECT_NE(rec_a, rec_b);
}

// ---- Heralded erasure & biased Pauli channel boundaries ---------------------

// p = 0 channels must consume NO randomness: a sim that took a pile of
// zero-rate erase/pauli-channel calls must stay on the exact same RNG
// stream as a fresh sim with the same seed.
TEST(ErasureBoundary, ZeroRateConsumesNoRngDraws) {
  FrameSim a(4, /*seed=*/99), b(4, /*seed=*/99);
  for (int rep = 0; rep < 50; ++rep) {
    for (size_t q = 0; q < 4; ++q) {
      a.erase_error(q, 0.0);
      a.pauli_channel1(q, 0.0, 0.0, 0.0);
    }
    a.pauli_channel2(0, 1, 0.0, 1.0 / 3, 1.0 / 3);
  }
  for (size_t q = 0; q < 4; ++q) {
    a.depolarize1(q, 0.5);
    b.depolarize1(q, 0.5);
  }
  EXPECT_TRUE(a.x_frame() == b.x_frame());
  EXPECT_TRUE(a.z_frame() == b.z_frame());
  for (size_t q = 0; q < 4; ++q) EXPECT_FALSE(a.is_erased(q));

  BatchFrameSim ba(4, 128, /*seed=*/99), bb(4, 128, /*seed=*/99);
  for (int rep = 0; rep < 50; ++rep) {
    for (size_t q = 0; q < 4; ++q) {
      ba.erase_error(q, 0.0);
      ba.pauli_channel1(q, 0.0, 0.0, 0.0);
    }
    ba.pauli_channel2(0, 1, 0.0, 1.0 / 3, 1.0 / 3);
  }
  for (size_t q = 0; q < 4; ++q) {
    ba.depolarize1(q, 0.5);
    bb.depolarize1(q, 0.5);
  }
  for (size_t q = 0; q < 4; ++q) {
    for (size_t w = 0; w < ba.num_words(); ++w) {
      ASSERT_EQ(ba.x_flips(q)[w], bb.x_flips(q)[w]) << q << " " << w;
      ASSERT_EQ(ba.z_flips(q)[w], bb.z_flips(q)[w]) << q << " " << w;
      ASSERT_EQ(ba.herald_word(q)[w], 0u);
    }
  }
}

// p = 1 heralds every site in both engines, and lane masks restrict the
// batch channel exactly.
TEST(ErasureBoundary, CertainErasureHeraldsEverySite) {
  FrameSim serial(3, /*seed=*/5);
  for (size_t q = 0; q < 3; ++q) serial.erase_error(q, 1.0);
  for (size_t q = 0; q < 3; ++q) EXPECT_TRUE(serial.is_erased(q));

  BatchFrameSim batch(3, 128, /*seed=*/5);
  batch.erase_error(0, 1.0);
  for (size_t w = 0; w < batch.num_words(); ++w) {
    EXPECT_EQ(batch.herald_word(0)[w], ~uint64_t{0});
  }
  const std::vector<uint64_t> mask = {0xF0F0F0F0F0F0F0F0ull,
                                      0x0000FFFF0000FFFFull};
  ASSERT_EQ(batch.num_words(), mask.size());
  batch.erase_error(1, 1.0, mask.data());
  for (size_t w = 0; w < batch.num_words(); ++w) {
    EXPECT_EQ(batch.herald_word(1)[w], mask[w]);
  }
}

// The deterministic herald injections pin the bitplanes frame-vs-batch bit
// for bit: lane by lane, the batch plane must equal what a serial sim
// records for that lane's pattern, and reset()/clear_heralds() must erase
// them identically.
TEST(ErasureBoundary, HeraldPlanesPinnedFrameVsBatch) {
  const std::vector<uint64_t> mask = {0xDEADBEEFCAFEF00Dull,
                                      0x0123456789ABCDEFull};
  BatchFrameSim batch(2, 128, /*seed=*/7);
  ASSERT_EQ(batch.num_words(), mask.size());
  batch.mark_erased_masked(1, mask.data());
  for (size_t shot = 0; shot < batch.num_shots(); ++shot) {
    FrameSim serial(2, /*seed=*/7);
    const bool lane_hit = (mask[shot >> 6] >> (shot & 63)) & 1u;
    if (lane_hit) serial.mark_erased(1);
    ASSERT_EQ(batch.heralded(0, shot), serial.is_erased(0)) << shot;
    ASSERT_EQ(batch.heralded(1, shot), serial.is_erased(1)) << shot;
  }
  // reset() clears the herald with the frame — a fresh qubit is not erased.
  batch.reset(1);
  for (size_t w = 0; w < batch.num_words(); ++w) {
    EXPECT_EQ(batch.herald_word(1)[w], 0u);
  }
  FrameSim serial(2, /*seed=*/7);
  serial.mark_erased(1);
  serial.reset(1);
  EXPECT_FALSE(serial.is_erased(1));
  // clear_heralds() drops every plane without touching frames.
  batch.mark_erased_masked(0, mask.data());
  batch.inject_x(0);
  batch.clear_heralds();
  for (size_t w = 0; w < batch.num_words(); ++w) {
    EXPECT_EQ(batch.herald_word(0)[w], 0u);
    EXPECT_EQ(batch.x_flips(0)[w], ~uint64_t{0});
  }
}

// Stochastic erasure + biased channels replay identically from the seed in
// both engines (determinism, not cross-engine equality: the two engines own
// distinct RNG disciplines).
TEST(ErasureBoundary, SeedDeterminismAcrossEngines) {
  FrameSim a(4, /*seed=*/321), b(4, /*seed=*/321);
  for (auto* s : {&a, &b}) {
    for (int rep = 0; rep < 20; ++rep) {
      for (size_t q = 0; q < 4; ++q) {
        s->erase_error(q, 0.3);
        s->pauli_channel1(q, 0.05, 0.01, 0.2);
      }
      s->pauli_channel2(1, 2, 0.2, 0.1, 0.1);
    }
  }
  EXPECT_TRUE(a.x_frame() == b.x_frame());
  EXPECT_TRUE(a.z_frame() == b.z_frame());
  for (size_t q = 0; q < 4; ++q) EXPECT_EQ(a.is_erased(q), b.is_erased(q));

  BatchFrameSim ba(4, 256, /*seed=*/321), bb(4, 256, /*seed=*/321);
  for (auto* s : {&ba, &bb}) {
    for (int rep = 0; rep < 20; ++rep) {
      for (size_t q = 0; q < 4; ++q) {
        s->erase_error(q, 0.3);
        s->pauli_channel1(q, 0.05, 0.01, 0.2);
      }
      s->pauli_channel2(1, 2, 0.2, 0.1, 0.1);
    }
  }
  for (size_t q = 0; q < 4; ++q) {
    for (size_t w = 0; w < ba.num_words(); ++w) {
      ASSERT_EQ(ba.x_flips(q)[w], bb.x_flips(q)[w]);
      ASSERT_EQ(ba.z_flips(q)[w], bb.z_flips(q)[w]);
      ASSERT_EQ(ba.herald_word(q)[w], bb.herald_word(q)[w]);
    }
  }
}

}  // namespace
}  // namespace ftqc::sim
