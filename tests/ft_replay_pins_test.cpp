// Recorded pins on the recovery cycles' exact behaviour: the stochastic
// draws of serial and batch shots, and the path each single fault takes
// through the serial drivers. A change that only reorganizes how a cycle is
// written must keep every constant here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "codes/library.h"
#include "fnv1a.h"
#include "ft/batch_recovery.h"
#include "ft/concatenated_recovery.h"
#include "ft/generic_recovery.h"
#include "ft/noise_injector.h"
#include "ft/steane_recovery.h"
#include "sim/noise_model.h"
#include "universal/flag_recovery.h"

namespace ftqc::ft {
namespace {

const sim::NoiseParams kNoiseless{};

// The two noise points of the suites' fingerprints: uniform depolarizing
// gates, and Z-biased gates with storage noise and heralded erasure (which
// exercises the herald reinit of the Steane ancilla).
sim::NoiseParams fingerprint_noise(bool biased) {
  if (!biased) return sim::NoiseParams::uniform_gate(8e-3);
  auto noise = sim::NoiseParams::biased_gate(8e-3, /*eta=*/4.0,
                                             /*eps_store=*/2e-3);
  noise.p_erase = 4e-3;
  return noise;
}

// The level-2 cycle defers nearly every correction at 8e-3, and at any
// storage rate near eps/4 (its repeated readings rarely agree), so its
// shots run the same two points at 1e-3 with a storage rate of eps/20.
sim::NoiseParams level2_noise(bool biased) {
  if (!biased) return sim::NoiseParams::uniform_gate(1e-3);
  auto noise = sim::NoiseParams::biased_gate(1e-3, /*eta=*/4.0,
                                             /*eps_store=*/5e-5);
  noise.p_erase = 5e-4;
  return noise;
}

RecoveryPolicy exrec_policy(bool data_recoveries) {
  RecoveryPolicy policy;
  policy.level2_discipline = Level2Discipline::kExRec;
  policy.exrec_data_recoveries = data_recoveries;
  return policy;
}

void add_data_frame(Fnv1a& hash, const sim::FrameSim& frame, uint32_t n) {
  for (uint32_t q = 0; q < n; ++q) {
    hash.add(uint64_t{frame.x_frame().get(q)} |
             uint64_t{frame.z_frame().get(q)} << 1);
  }
}

// Verdicts and data frames of consecutive shots of one serial driver
// (reset between shots, so its RNG runs on).
template <typename Driver>
uint64_t serial_shots_fingerprint(Driver& rec, uint32_t n, size_t shots,
                                  double memory_p) {
  Fnv1a hash;
  for (size_t s = 0; s < shots; ++s) {
    rec.reset();
    rec.apply_memory_noise(memory_p);
    rec.run_cycle();
    hash.add(rec.any_logical_error());
    add_data_frame(hash, rec.frame(), n);
  }
  return hash.value();
}

TEST(SteaneFingerprint, SerialShots) {
  const uint64_t expected[2] = {0xb323df11bbf0d005ull,
                                 0x3ef24c64fbdf07a5ull};
  for (const bool biased : {false, true}) {
    SteaneRecovery rec(fingerprint_noise(biased), RecoveryPolicy{},
                       /*seed=*/29);
    EXPECT_EQ(serial_shots_fingerprint(rec, 7, 4000, /*memory_p=*/0.01),
              expected[biased])
        << (biased ? "biased" : "uniform");
  }
}

TEST(SteaneFingerprint, BatchBlock) {
  const uint64_t expected[2] = {0x79e6b02f9d205950ull,
                                 0xa83a2837e0df5f76ull};
  for (const bool biased : {false, true}) {
    BatchSteaneRecovery rec(fingerprint_noise(biased), RecoveryPolicy{},
                            /*shots=*/4096, /*seed=*/31);
    rec.run_cycle();
    Fnv1a hash;
    for (size_t shot = 0; shot < rec.num_shots(); ++shot) {
      hash.add(rec.any_logical_error(shot));
    }
    hash.add(rec.count_any_logical_error());
    hash.add(rec.count_residual());
    const sim::BatchFrameSim& frames = rec.frames();
    for (size_t w = 0; w < rec.num_words(); ++w) {
      for (uint32_t q = 0; q < 7; ++q) {
        hash.add(frames.x_flips(q)[w]);
        hash.add(frames.z_flips(q)[w]);
      }
      hash.add(frames.abort_mask()[w]);
    }
    EXPECT_EQ(hash.value(), expected[biased])
        << (biased ? "biased" : "uniform");
  }
}

// Memory noise before each cycle gives the repeated readings something to
// agree on, so corrections (and with them the data recoveries) run.
TEST(Level2Fingerprint, ExRecSerialShots) {
  const uint64_t expected[2][2] = {
      {0xce06b0874df0c0c6ull, 0xa8a05a42a5376584ull},
      {0xaaaa38d1328f74a4ull, 0x098f6d942936fd65ull}};
  uint64_t actual[2][2] = {};
  for (const bool data_recoveries : {false, true}) {
    for (const bool biased : {false, true}) {
      Level2Recovery rec(level2_noise(biased), exrec_policy(data_recoveries),
                         /*seed=*/37);
      actual[data_recoveries][biased] =
          serial_shots_fingerprint(rec, 49, 150, /*memory_p=*/0.01);
      EXPECT_EQ(actual[data_recoveries][biased],
                expected[data_recoveries][biased])
          << (data_recoveries ? "exRec+data " : "exRec ")
          << (biased ? "biased" : "uniform");
    }
  }
  // The data recoveries ran at both points.
  EXPECT_NE(actual[0][0], actual[1][0]);
  EXPECT_NE(actual[0][1], actual[1][1]);
}

// --- Strided single-fault replays --------------------------------------------
//
// Records the noiseless path, then arms every variant of every stride-th
// location and replays one cycle per (location, variant). Each replay adds
// the armed fault, the number of locations the faulted path realized, the
// sub-gadget markers with their locations, the verdict and the data frame.
// The exhaustive scans elsewhere only assert "no single fault fails"; this
// pins where every sampled fault leads.

void add_string(Fnv1a& hash, const std::string& s) {
  hash.add(s.size());
  for (const char c : s) hash.add(static_cast<unsigned char>(c));
}

void add_markers(Fnv1a& hash, const FaultPointInjector& injector) {
  hash.add(injector.markers().size());
  for (const auto& [label, location] : injector.markers()) {
    add_string(hash, label);
    hash.add(location);
  }
}

// `make()` builds a fresh noiseless driver with `n` data qubits.
template <typename MakeDriver>
uint64_t single_fault_replay_hash(MakeDriver make, uint32_t n,
                                  size_t stride) {
  FaultPointInjector recorder;
  {
    auto rec = make();
    rec.set_injector(&recorder);
    rec.run_cycle();
    rec.set_injector(nullptr);
  }
  const auto kinds = recorder.kinds();
  Fnv1a hash;
  hash.add(kinds.size());
  add_markers(hash, recorder);
  for (size_t location = 0; location < kinds.size(); location += stride) {
    for (int variant = 0; variant < location_variants(kinds[location]);
         ++variant) {
      FaultPointInjector injector({{location, variant}},
                                  /*record_kinds=*/false);
      auto rec = make();
      rec.set_injector(&injector);
      rec.run_cycle();
      rec.set_injector(nullptr);
      hash.add(location);
      hash.add(static_cast<uint64_t>(variant));
      hash.add(injector.num_locations());
      add_markers(hash, injector);
      hash.add(rec.any_logical_error());
      add_data_frame(hash, rec.frame(), n);
    }
  }
  return hash.value();
}

TEST(SingleFaultReplay, SteaneRecovery) {
  EXPECT_EQ(single_fault_replay_hash(
                [] { return SteaneRecovery(kNoiseless, RecoveryPolicy{}, 3); },
                7, /*stride=*/1),
            0x69c6394f737763fbull);
}

TEST(SingleFaultReplay, Level2Bare) {
  EXPECT_EQ(single_fault_replay_hash(
                [] { return Level2Recovery(kNoiseless, RecoveryPolicy{}, 5); },
                49, /*stride=*/79),
            0xc8d3208fa520a33cull);
}

TEST(SingleFaultReplay, Level2ExRec) {
  EXPECT_EQ(single_fault_replay_hash(
                [] {
                  return Level2Recovery(kNoiseless, exrec_policy(false), 5);
                },
                49, /*stride=*/151),
            0x71c9a27ffefdfd56ull);
}

TEST(SingleFaultReplay, Level2ExRecWithDataRecoveries) {
  EXPECT_EQ(single_fault_replay_hash(
                [] {
                  return Level2Recovery(kNoiseless, exrec_policy(true), 5);
                },
                49, /*stride=*/173),
            0xbe6bf6194e002803ull);
}

TEST(SingleFaultReplay, GenericShorRecoverySteane) {
  EXPECT_EQ(single_fault_replay_hash(
                [] {
                  return GenericShorRecovery(codes::steane(), kNoiseless,
                                             RecoveryPolicy{}, 7);
                },
                7, /*stride=*/1),
            0x39fb2076338ba133ull);
}

TEST(SingleFaultReplay, FlagRecoverySteane) {
  EXPECT_EQ(single_fault_replay_hash(
                [] {
                  return universal::FlagRecovery(codes::steane(), kNoiseless,
                                                 RecoveryPolicy{}, 11);
                },
                7, /*stride=*/1),
            0x7ab6792fa4cdf545ull);
}

}  // namespace
}  // namespace ftqc::ft
