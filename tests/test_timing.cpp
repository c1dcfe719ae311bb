// Unit tests for src/timing: voltage scaling, process variation, environment
// sensors, the per-PC path model and the fault oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

#include "src/common/stats.hpp"
#include "src/timing/fault_model.hpp"
#include "src/timing/path_model.hpp"
#include "src/timing/process_variation.hpp"
#include "src/timing/sensors.hpp"
#include "src/timing/state_delay.hpp"
#include "src/timing/voltage.hpp"

namespace vasim::timing {
namespace {

TEST(VoltageModel, NominalScaleIsOne) {
  VoltageModel vm;
  EXPECT_NEAR(vm.delay_scale(SupplyPoints::kNominal), 1.0, 1e-12);
}

TEST(VoltageModel, DelayGrowsAsSupplyDrops) {
  VoltageModel vm;
  const double s104 = vm.delay_scale(SupplyPoints::kLowFault);
  const double s097 = vm.delay_scale(SupplyPoints::kHighFault);
  EXPECT_GT(s104, 1.0);
  EXPECT_GT(s097, s104);
  // Alpha-power law magnitudes for Vth=0.3, alpha=1.3.
  EXPECT_NEAR(s104, 1.046, 0.005);
  EXPECT_NEAR(s097, 1.110, 0.005);
}

TEST(VoltageModel, EnergyScales) {
  VoltageModel vm;
  EXPECT_NEAR(vm.dynamic_energy_scale(1.10), 1.0, 1e-12);
  EXPECT_NEAR(vm.dynamic_energy_scale(0.97), (0.97 * 0.97) / (1.1 * 1.1), 1e-12);
  EXPECT_NEAR(vm.leakage_power_scale(0.97), 0.97 / 1.1, 1e-12);
}

TEST(VoltageModel, RejectsSubThresholdSupplies) {
  VoltageModel vm;
  EXPECT_THROW((void)vm.delay_scale(0.2), std::invalid_argument);
  EXPECT_THROW(VoltageModel(1.2, 1.3, 1.1), std::invalid_argument);
}

TEST(ProcessVariation, DeterministicPerGate) {
  ProcessVariation pv;
  EXPECT_DOUBLE_EQ(pv.delay_factor(1, 5), pv.delay_factor(1, 5));
  EXPECT_NE(pv.delay_factor(1, 5), pv.delay_factor(1, 6));
  EXPECT_NE(pv.delay_factor(1, 5), pv.delay_factor(2, 5));
}

TEST(ProcessVariation, ParamsMatchThreeSigmaSpec) {
  ProcessVariation pv;
  RunningStat l;
  for (u64 g = 0; g < 20000; ++g) l.add(pv.sample_params(0, g).dlength);
  // +/-20% at 3 sigma => sigma = 0.0667.
  EXPECT_NEAR(l.stddev(), 0.20 / 3.0, 0.002);
  EXPECT_NEAR(l.mean(), 0.0, 0.002);
}

TEST(ProcessVariation, DelayFactorSigmaMatchesAnalytic) {
  ProcessVariation pv;
  RunningStat s;
  for (u64 g = 0; g < 20000; ++g) s.add(pv.delay_factor(0, g));
  EXPECT_NEAR(s.mean(), 1.0, 0.005);
  EXPECT_NEAR(s.stddev(), pv.delay_factor_sigma(), 0.01);
}

TEST(SpatialVariation, MeanAndSigmaMatchBase) {
  SpatialConfig cfg;
  SpatialVariation sv(cfg);
  const ProcessVariation base(cfg.base);
  RunningStat s;
  const u64 total = 4096;
  for (u64 g = 0; g < total; ++g) s.add(sv.delay_factor(0, g, total));
  EXPECT_NEAR(s.mean(), 1.0, 0.05);
  EXPECT_NEAR(s.stddev(), base.delay_factor_sigma(), 0.25 * base.delay_factor_sigma());
}

TEST(SpatialVariation, NeighborsCorrelateMoreThanStrangers) {
  SpatialConfig cfg;
  cfg.systematic_fraction = 0.8;
  SpatialVariation sv(cfg);
  const u64 total = 4096;  // 64x64 pseudo-placement
  double near_diff = 0, far_diff = 0;
  int n = 0;
  for (u64 die = 0; die < 24; ++die) {
    for (u64 g = 100; g < 600; g += 7) {
      near_diff += std::abs(sv.delay_factor(die, g, total) - sv.delay_factor(die, g + 1, total));
      far_diff += std::abs(sv.delay_factor(die, g, total) - sv.delay_factor(die, g + 2048, total));
      ++n;
    }
  }
  EXPECT_LT(near_diff / n, far_diff / n)
      << "systematic field must make neighbors more alike than distant gates";
}

TEST(SpatialVariation, PureRandomHasNoCorrelation) {
  SpatialConfig cfg;
  cfg.systematic_fraction = 0.0;
  SpatialVariation sv(cfg);
  const u64 total = 4096;
  double near_diff = 0, far_diff = 0;
  int n = 0;
  for (u64 die = 0; die < 24; ++die) {
    for (u64 g = 100; g < 600; g += 7) {
      near_diff += std::abs(sv.delay_factor(die, g, total) - sv.delay_factor(die, g + 1, total));
      far_diff += std::abs(sv.delay_factor(die, g, total) - sv.delay_factor(die, g + 2048, total));
      ++n;
    }
  }
  EXPECT_NEAR(near_diff / n, far_diff / n, 0.15 * far_diff / n);
}

TEST(SpatialVariation, RejectsBadConfig) {
  SpatialConfig bad;
  bad.grid = 1;
  EXPECT_THROW(SpatialVariation{bad}, std::invalid_argument);
  bad.grid = 8;
  bad.systematic_fraction = 1.5;
  EXPECT_THROW(SpatialVariation{bad}, std::invalid_argument);
}

TEST(Environment, ModulationBounded) {
  Environment env;
  for (Cycle c = 0; c < 100000; c += 7) {
    const double m = env.modulation(c);
    EXPECT_GE(m, 1.0 - env.config().clamp);
    EXPECT_LE(m, 1.0 + env.config().clamp);
  }
}

TEST(Environment, ThermalWavePeriodic) {
  Environment env;
  const Cycle p = env.config().thermal_period;
  EXPECT_NEAR(env.thermal_component(100), env.thermal_component(100 + p), 1e-12);
  EXPECT_NEAR(env.thermal_component(0), 0.0, 1e-12);
}

TEST(Environment, SensorsThreshold) {
  Environment env;
  ThermalSensor ts(&env);
  VoltageSensor vs(&env);
  int hot = 0, droopy = 0;
  const int n = 20000;
  for (Cycle c = 0; c < static_cast<Cycle>(n); ++c) {
    hot += ts.hot(c);
    droopy += vs.droopy(c);
  }
  // Both components are symmetric around zero: ~half the time unfavorable.
  EXPECT_NEAR(hot / static_cast<double>(n), 0.5, 0.1);
  EXPECT_NEAR(droopy / static_cast<double>(n), 0.5, 0.1);
}

TEST(Environment, RejectsZeroPeriods) {
  EnvironmentConfig no_wave;
  no_wave.thermal_period = 0;
  EXPECT_THROW(Environment{no_wave}, std::invalid_argument);
  EnvironmentConfig no_epoch;
  no_epoch.droop_epoch = 0;
  EXPECT_THROW(Environment{no_epoch}, std::invalid_argument);
  EXPECT_THROW(FaultModel(PathModelConfig{}, 0.97, VoltageModel(), no_epoch),
               std::invalid_argument);
}

TEST(PathModel, DeterministicPerPc) {
  const VoltageModel vm;
  PathModelConfig cfg{123, 0.08, 0.02};
  const SensitizedPathModel m(cfg, vm);
  EXPECT_DOUBLE_EQ(m.path_factor(0x1000), m.path_factor(0x1000));
  EXPECT_LE(m.path_factor(0x1000), 0.97);
  EXPECT_GT(m.path_factor(0x1000), 0.0);
}

TEST(PathModel, StaticBandMassTracksTargets) {
  const VoltageModel vm;
  PathModelConfig cfg{99, 0.08, 0.02};
  const SensitizedPathModel m(cfg, vm);
  const double s_low = vm.delay_scale(SupplyPoints::kLowFault);
  const double s_high = vm.delay_scale(SupplyPoints::kHighFault);
  int low = 0, high = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const Pc pc = 0x1000 + static_cast<Pc>(i) * 4;
    low += m.core_faulty(pc, s_low);
    high += m.core_faulty(pc, s_high);
  }
  // Static mass approximates the configured dynamic targets (band yield
  // correction keeps them the same order).
  EXPECT_NEAR(low / static_cast<double>(n), 0.02, 0.01);
  EXPECT_NEAR(high / static_cast<double>(n), 0.08, 0.02);
}

TEST(PathModel, NoFaultsAtNominal) {
  const VoltageModel vm;
  PathModelConfig cfg{7, 0.10, 0.03};
  const SensitizedPathModel m(cfg, vm);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_FALSE(m.core_faulty(0x1000 + static_cast<Pc>(i) * 4, 1.0));
  }
}

TEST(PathModel, FaultyStageSkewedToWakeupSelect) {
  const VoltageModel vm;
  PathModelConfig cfg{5, 0.08, 0.02};
  const SensitizedPathModel m(cfg, vm);
  int issue = 0, mem = 0, n = 20000;
  for (int i = 0; i < n; ++i) {
    const Pc pc = static_cast<Pc>(i) * 4;
    issue += m.faulty_stage(pc, FaultClass::kAluLike) == OooStage::kIssueSelect;
    mem += m.faulty_stage(pc, FaultClass::kMemLike) == OooStage::kMemory;
  }
  // Sec 3.3.1: wakeup/select dominates ALU-like faults.
  EXPECT_NEAR(issue / static_cast<double>(n), 0.70, 0.03);
  // Sec 3.3.4: LSQ CAM is the second hot spot for memory ops.
  EXPECT_NEAR(mem / static_cast<double>(n), 0.33, 0.03);
}

TEST(PathModel, MemClassNeverFaultsInExecute) {
  const VoltageModel vm;
  const SensitizedPathModel m(PathModelConfig{11, 0.08, 0.02}, vm);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_NE(m.faulty_stage(static_cast<Pc>(i) * 4, FaultClass::kMemLike),
              OooStage::kExecute);
  }
}

TEST(PathModel, CommonalityInS1Range) {
  const VoltageModel vm;
  const SensitizedPathModel m(PathModelConfig{3, 0.08, 0.02}, vm);
  RunningStat s;
  for (int i = 0; i < 10000; ++i) s.add(m.commonality(static_cast<Pc>(i) * 4));
  // S1 reports 87-92% average commonality.
  EXPECT_NEAR(s.mean(), 0.90, 0.01);
  EXPECT_GE(s.min(), 0.75);
  EXPECT_LE(s.max(), 0.98);
}

TEST(PathModel, RejectsBadTargets) {
  const VoltageModel vm;
  EXPECT_THROW(SensitizedPathModel(PathModelConfig{1, 0.01, 0.05}, vm), std::invalid_argument);
}

TEST(FaultModel, DisabledAtNominalSupply) {
  const FaultModel fm(PathModelConfig{1, 0.08, 0.02}, SupplyPoints::kNominal);
  EXPECT_FALSE(fm.enabled());
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(fm.query(static_cast<Pc>(i) * 4, FaultClass::kAluLike, i).faulty);
  }
}

class FaultModelRates : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(FaultModelRates, RateTracksTarget) {
  const auto [vdd, p_low, p_high] = GetParam();
  const FaultModel fm(PathModelConfig{77, p_high, p_low}, vdd);
  int faults = 0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    faults += fm.query(0x1000 + static_cast<Pc>(i % 8000) * 4, FaultClass::kAluLike,
                       static_cast<Cycle>(i)).faulty;
  }
  const double target = vdd < 1.0 ? p_high : p_low;
  EXPECT_NEAR(faults / static_cast<double>(n), target, target * 0.5 + 0.005);
}

INSTANTIATE_TEST_SUITE_P(
    Supplies, FaultModelRates,
    ::testing::Values(std::make_tuple(1.04, 0.02, 0.08), std::make_tuple(0.97, 0.02, 0.08),
                      std::make_tuple(1.04, 0.015, 0.06), std::make_tuple(0.97, 0.015, 0.10),
                      std::make_tuple(1.04, 0.022, 0.09), std::make_tuple(0.97, 0.013, 0.055)));

TEST(FaultModel, CoreFaultyPCsRecur) {
  const FaultModel fm(PathModelConfig{13, 0.10, 0.03}, 0.97);
  // Find a core-faulty PC, then verify every instance faults except possibly
  // boundary modulation flips (core-faulty deep PCs never flip).
  for (int i = 0; i < 20000; ++i) {
    const Pc pc = 0x1000 + static_cast<Pc>(i) * 4;
    const FaultDecision d0 = fm.query(pc, FaultClass::kAluLike, 0);
    if (!d0.core_faulty || d0.path_factor < 0.93) continue;
    int recur = 0;
    for (Cycle c = 0; c < 1000; ++c) recur += fm.query(pc, FaultClass::kAluLike, c * 37).faulty;
    EXPECT_GT(recur, 800) << "core-faulty PC should fault on most instances";
    return;
  }
  FAIL() << "no core-faulty PC found";
}

TEST(FaultModel, StageStableAcrossInstances) {
  const FaultModel fm(PathModelConfig{17, 0.10, 0.03}, 0.97);
  for (int i = 0; i < 100; ++i) {
    const Pc pc = 0x2000 + static_cast<Pc>(i) * 4;
    const OooStage s = fm.query(pc, FaultClass::kAluLike, 1).stage;
    for (Cycle c = 2; c < 50; ++c) {
      EXPECT_EQ(fm.query(pc, FaultClass::kAluLike, c).stage, s);
    }
  }
}

// ---- memoized oracle exactness -------------------------------------------
//
// Every memoized term must return the bits of a fresh computation.  The
// reference is either a cold model (its first query of a key computes it)
// or, for the whole oracle, a digest pinned from the unmemoized code.

u64 bits(double x) { return std::bit_cast<u64>(x); }

constexpr double kVdd = SupplyPoints::kHighFault;
constexpr double kInOrderScale = 0.5;

/// A fault model with its state-delay model attached, as adaptive runs wire
/// them.  Never moved: `fm` points at `sm`.
struct Oracle {
  StateDelayModel sm;
  FaultModel fm;
  Oracle()
      : sm(state_cfg(), ProcessVariation(process_cfg()), kVdd),
        fm(PathModelConfig{2013, 0.08, 0.02}, kVdd) {
    fm.set_state_model(&sm);
  }
  static StateDelayConfig state_cfg() {
    StateDelayConfig c;
    c.seed = 2013;
    return c;
  }
  static ProcessConfig process_cfg() {
    ProcessConfig c;
    c.seed = 5;
    return c;
  }
};

struct Query {
  Pc pc = 0;
  FaultClass cls = FaultClass::kAluLike;
  Cycle cycle = 0;
  u64 sig = 0;
  double period = 1.0;
};

/// A query stream that stresses every memo: text-segment PCs (the hot
/// case), PCs sharing one slot of the 2^13-slot per-PC tables, full 64-bit
/// random PCs, recurring operand signatures, and cycles that repeat, step
/// forward, cross droop-epoch boundaries and jump backwards.
std::vector<Query> query_script(int n) {
  Pcg32 rng(0x5eed);
  std::vector<Query> out;
  Cycle cycle = 1000;
  for (int i = 0; i < n; ++i) {
    Query q;
    switch (rng.next_u32() % 4) {
      case 0:
      case 1:
        q.pc = 0x400000 + static_cast<Pc>(rng.next_u32() % 4096) * 4;
        break;
      case 2:
        q.pc = 0x400000 + static_cast<Pc>(rng.next_u32() % 4) * (4ULL << 13);
        break;
      default:
        q.pc = rng.next_u64();
        break;
    }
    q.cls = rng.next_u32() % 3 == 0 ? FaultClass::kMemLike : FaultClass::kAluLike;
    q.sig = rng.next_u32() % 2 == 0 ? rng.next_u32() % 8 : rng.next_u64();
    q.period = 0.96 + 0.01 * static_cast<double>(rng.next_u32() % 8);
    switch (rng.next_u32() % 8) {
      case 0:
        cycle -= std::min<Cycle>(cycle, rng.next_u32() % 64);  // backwards
        break;
      case 1:
        cycle = (cycle / 16 + 1) * 16 - (rng.next_u32() % 2);  // epoch edge
        break;
      case 2:
        cycle += rng.next_u32() % 40000;  // across thermal periods
        break;
      case 3:
      case 4:
        break;  // same cycle again
      default:
        cycle += 1;
        break;
    }
    q.cycle = cycle;
    out.push_back(q);
  }
  return out;
}

bool same(const FaultDecision& a, const FaultDecision& b) {
  return bits(a.path_factor) == bits(b.path_factor) && a.stage == b.stage &&
         a.faulty == b.faulty && a.core_faulty == b.core_faulty;
}

bool same(const InOrderFaultDecision& a, const InOrderFaultDecision& b) {
  return a.faulty == b.faulty && a.stage == b.stage;
}

/// FNV-1a over every answer the oracle gives to the query script.
u64 oracle_digest(const Oracle& o, const std::vector<Query>& script) {
  u64 h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  const Environment& env = o.fm.environment();
  for (const Query& q : script) {
    for (const FaultDecision& d :
         {o.fm.query(q.pc, q.cls, q.cycle),
          o.fm.query_adaptive(q.pc, q.cls, q.cycle, q.period, q.sig)}) {
      mix(bits(d.path_factor));
      mix(static_cast<u64>(d.stage) << 2 | u64{d.faulty} << 1 | u64{d.core_faulty});
    }
    for (const InOrderFaultDecision& d :
         {o.fm.query_inorder(q.pc, q.cycle, kInOrderScale),
          o.fm.query_inorder_adaptive(q.pc, q.cycle, kInOrderScale, q.period)}) {
      mix(static_cast<u64>(d.stage) << 1 | u64{d.faulty});
    }
    mix(bits(o.sm.factor(q.pc, q.sig, q.cls)));
    mix(bits(env.thermal_component(q.cycle)));
    mix(bits(env.droop_component(q.cycle)));
    mix(bits(env.modulation(q.cycle)));
  }
  return h;
}

TEST(OracleMemo, DigestMatchesUnmemoizedOracle) {
  // Recorded with the oracle as it was before memoization, which computed
  // every term afresh on every call.
  const std::vector<Query> script = query_script(20000);
  const Oracle o;
  EXPECT_EQ(oracle_digest(o, script), 0x004eee29fcaf505fULL);
  // The digest is not vacuous: the script produces faults of every kind.
  int faulty = 0, adaptive = 0, inorder = 0;
  for (const Query& q : script) {
    faulty += o.fm.query(q.pc, q.cls, q.cycle).faulty;
    adaptive += o.fm.query_adaptive(q.pc, q.cls, q.cycle, q.period, q.sig).faulty;
    inorder += o.fm.query_inorder(q.pc, q.cycle, kInOrderScale).faulty;
  }
  EXPECT_GT(faulty, 100);
  EXPECT_GT(adaptive, 100);
  EXPECT_GT(inorder, 10);
}

TEST(OracleMemo, WarmQueriesMatchColdModels) {
  const Oracle warm;
  int mismatches = 0;
  for (const Query& q : query_script(1500)) {
    // A fresh model per query kind, so each reference is a table miss.
    mismatches += !same(warm.fm.query(q.pc, q.cls, q.cycle),
                        Oracle().fm.query(q.pc, q.cls, q.cycle));
    mismatches += !same(warm.fm.query_adaptive(q.pc, q.cls, q.cycle, q.period, q.sig),
                        Oracle().fm.query_adaptive(q.pc, q.cls, q.cycle, q.period, q.sig));
    mismatches += !same(warm.fm.query_inorder(q.pc, q.cycle, kInOrderScale),
                        Oracle().fm.query_inorder(q.pc, q.cycle, kInOrderScale));
    mismatches += !same(warm.fm.query_inorder_adaptive(q.pc, q.cycle, kInOrderScale, q.period),
                        Oracle().fm.query_inorder_adaptive(q.pc, q.cycle, kInOrderScale, q.period));
    mismatches += bits(warm.sm.factor(q.pc, q.sig, q.cls)) !=
                  bits(Oracle().sm.factor(q.pc, q.sig, q.cls));
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(OracleMemo, CollidingPcsStayExact) {
  // Eight PCs that share one slot of the per-PC tables (four 32 KiB apart,
  // four differing only above bit 32), visited round-robin so every lookup
  // evicts the previous owner, then revisited in reverse.
  const Oracle warm;
  std::vector<Pc> pcs;
  for (Pc k = 0; k < 4; ++k) pcs.push_back(0x400040 + k * (4ULL << 13));
  for (Pc k = 1; k <= 4; ++k) pcs.push_back(0x400040 + (k << 40));
  int mismatches = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 8; ++i) {
      const Pc pc = pcs[round % 2 == 0 ? i : 7 - i];
      const Cycle c = static_cast<Cycle>(round * 8 + i);
      for (FaultClass cls : {FaultClass::kAluLike, FaultClass::kMemLike}) {
        mismatches += !same(warm.fm.query(pc, cls, c), Oracle().fm.query(pc, cls, c));
      }
      mismatches += !same(warm.fm.query_inorder(pc, c, kInOrderScale),
                          Oracle().fm.query_inorder(pc, c, kInOrderScale));
      EXPECT_EQ(bits(warm.fm.paths().path_factor(pc)), bits(Oracle().fm.paths().path_factor(pc)));
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(OracleMemo, InOrderKeysDoNotAliasOooEntries) {
  // An in-order query reads the OoO population at the hashed key
  // hash_mix(pc ^ 0x1a0cde).  Querying that key as an OoO PC, and the PC
  // itself in both engines, must leave every answer as a cold model gives it.
  const Oracle warm;
  Pcg32 rng(11);
  int mismatches = 0;
  for (int i = 0; i < 2000; ++i) {
    const Pc pc = 0x400000 + static_cast<Pc>(rng.next_u32() % 4096) * 4;
    const Pc hashed = hash_mix(pc ^ 0x1a0cdeULL);
    const Cycle c = static_cast<Cycle>(i);
    mismatches += !same(warm.fm.query(hashed, FaultClass::kAluLike, c),
                        Oracle().fm.query(hashed, FaultClass::kAluLike, c));
    mismatches += !same(warm.fm.query_inorder(pc, c, kInOrderScale),
                        Oracle().fm.query_inorder(pc, c, kInOrderScale));
    mismatches += !same(warm.fm.query(pc, FaultClass::kMemLike, c),
                        Oracle().fm.query(pc, FaultClass::kMemLike, c));
    mismatches += !same(warm.fm.query_inorder_adaptive(hashed, c, kInOrderScale, 0.97),
                        Oracle().fm.query_inorder_adaptive(hashed, c, kInOrderScale, 0.97));
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(OracleMemo, StateFactorRetriesAndClasses) {
  // An instance retried on consecutive cycles, and the same PC and operand
  // signature queried for both fault classes back to back.
  const Oracle warm;
  int mismatches = 0;
  for (Pc pc = 0x400000; pc < 0x400000 + 64 * 4; pc += 4) {
    for (u64 sig = 0; sig < 4; ++sig) {
      for (int retry = 0; retry < 3; ++retry) {
        for (FaultClass cls : {FaultClass::kAluLike, FaultClass::kMemLike}) {
          mismatches +=
              bits(warm.sm.factor(pc, sig, cls)) != bits(Oracle().sm.factor(pc, sig, cls));
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(OracleMemo, EnvironmentAnyCycleOrder) {
  // Repeated, backwards and epoch-boundary cycles, read through every
  // accessor in varying order, against a fresh environment per read.
  const Environment warm;
  const std::vector<Cycle> cycles = {0,  0,  15,    16,    16,    15,    31,    32, 1,
                                     17, 48, 47,    19999, 20000, 20001, 19999, 0,  40000,
                                     39, 40, 40000, 5,     5,     80015, 80016, 3};
  int mismatches = 0;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    const Cycle c = cycles[i];
    const int order = static_cast<int>(i % 3);
    for (int k = 0; k < 3; ++k) {
      switch ((order + k) % 3) {
        case 0:
          mismatches += bits(warm.modulation(c)) != bits(Environment().modulation(c));
          break;
        case 1:
          mismatches += bits(warm.thermal_component(c)) != bits(Environment().thermal_component(c));
          break;
        default:
          mismatches += bits(warm.droop_component(c)) != bits(Environment().droop_component(c));
          break;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(OracleMemo, ColdWarmAndCopiedModelsAgree) {
  // A model warmed by the whole script, a copy of it (copies start with
  // empty tables) and a cold model digest the script identically.
  const std::vector<Query> script = query_script(5000);
  const Oracle warm;
  const u64 first = oracle_digest(warm, script);
  EXPECT_EQ(oracle_digest(warm, script), first);
  const Oracle cold;
  EXPECT_EQ(oracle_digest(cold, script), first);
  const FaultModel copy = warm.fm;  // shares warm's state model
  int mismatches = 0;
  for (const Query& q : script) {
    mismatches += !same(copy.query_adaptive(q.pc, q.cls, q.cycle, q.period, q.sig),
                        warm.fm.query_adaptive(q.pc, q.cls, q.cycle, q.period, q.sig));
    mismatches += !same(copy.query_inorder(q.pc, q.cycle, kInOrderScale),
                        warm.fm.query_inorder(q.pc, q.cycle, kInOrderScale));
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace vasim::timing
