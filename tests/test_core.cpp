// Unit tests for the core contribution layer: TEP, energy model, runner.
#include <gtest/gtest.h>

#include "src/core/energy.hpp"
#include "src/core/runner.hpp"
#include "src/core/tep.hpp"

namespace vasim::core {
namespace {

using timing::OooStage;

TEST(Tep, ColdTableDoesNotPredict) {
  TimingErrorPredictor tep;
  EXPECT_FALSE(tep.predict(0x1000, 0, 0).predicted);
}

TEST(Tep, LearnsAfterOneFaultAndDecays) {
  TepConfig cfg;
  cfg.sensor_gating = false;
  TimingErrorPredictor tep(cfg);
  tep.train(0x1000, 0, true, OooStage::kExecute);
  const cpu::FaultPrediction p = tep.predict(0x1000, 0, 0);
  EXPECT_TRUE(p.predicted);
  EXPECT_EQ(p.stage, OooStage::kExecute);
  // counter_on_alloc = 2: two clean observations clear the prediction.
  tep.train(0x1000, 0, false, OooStage::kExecute);
  EXPECT_TRUE(tep.predict(0x1000, 0, 0).predicted);
  tep.train(0x1000, 0, false, OooStage::kExecute);
  EXPECT_FALSE(tep.predict(0x1000, 0, 0).predicted);
}

TEST(Tep, TagMismatchDoesNotPredict) {
  TepConfig cfg;
  cfg.sensor_gating = false;
  TimingErrorPredictor tep(cfg);
  tep.train(0x1000, 0, true, OooStage::kIssueSelect);
  // Same table index (pc + entries*4 keeps the low index bits), new tag.
  const Pc alias = 0x1000 + static_cast<Pc>(cfg.entries) * 4;
  EXPECT_FALSE(tep.predict(alias, 0, 0).predicted);
}

TEST(Tep, HistoryIndexSeparatesContexts) {
  TepConfig cfg;
  cfg.sensor_gating = false;
  TimingErrorPredictor tep(cfg);
  tep.train(0x1000, /*history=*/0b1010, true, OooStage::kIssueSelect);
  EXPECT_TRUE(tep.predict(0x1000, 0b1010, 0).predicted);
  EXPECT_FALSE(tep.predict(0x1000, 0b0101, 0).predicted);
}

TEST(Tep, MostRecentEntryEviction) {
  TepConfig cfg;
  cfg.sensor_gating = false;
  TimingErrorPredictor tep(cfg);
  const Pc a = 0x1000;
  const Pc b = a + static_cast<Pc>(cfg.entries) * 4;  // same index, distinct tag
  tep.train(a, 0, true, OooStage::kExecute);
  EXPECT_TRUE(tep.predict(a, 0, 0).predicted);
  tep.train(b, 0, true, OooStage::kMemory);
  EXPECT_TRUE(tep.predict(b, 0, 0).predicted);
  EXPECT_FALSE(tep.predict(a, 0, 0).predicted) << "MRE allocation evicts the old owner";
  EXPECT_EQ(tep.allocations(), 2u);
}

TEST(Tep, CriticalityConfidenceCounter) {
  TepConfig cfg;
  cfg.sensor_gating = false;
  TimingErrorPredictor tep(cfg);
  tep.train(0x2000, 0, true, OooStage::kIssueSelect);
  EXPECT_FALSE(tep.predict(0x2000, 0, 0).critical);
  tep.mark_critical(0x2000, 0, true);
  tep.mark_critical(0x2000, 0, true);
  EXPECT_TRUE(tep.predict(0x2000, 0, 0).critical);
  tep.mark_critical(0x2000, 0, false);
  EXPECT_FALSE(tep.predict(0x2000, 0, 0).critical);
}

TEST(Tep, SensorGatingHoldsBackWeakEntries) {
  const timing::Environment env;
  TepConfig cfg;
  cfg.sensor_gating = true;
  TimingErrorPredictor tep(cfg, &env);
  tep.train(0x3000, 0, true, OooStage::kIssueSelect);  // counter = 2 (weak)
  // Find cool/quiet and hot/droopy cycles.
  int predicted = 0, total = 0;
  for (Cycle c = 0; c < 40000; c += 13) {
    predicted += tep.predict(0x3000, 0, c).predicted;
    ++total;
  }
  EXPECT_GT(predicted, 0);
  EXPECT_LT(predicted, total) << "weak entries must be gated in favourable conditions";
  // Saturated entries always predict.
  tep.train(0x3000, 0, true, OooStage::kIssueSelect);  // counter -> 3
  for (Cycle c = 0; c < 1000; c += 13) {
    EXPECT_TRUE(tep.predict(0x3000, 0, c).predicted);
  }
}

TEST(Tep, RejectsNonPowerOfTwo) {
  TepConfig cfg;
  cfg.entries = 1000;
  EXPECT_THROW(TimingErrorPredictor{cfg}, std::invalid_argument);
}

TEST(Tep, StorageBitsMatchFieldLayout) {
  TepConfig cfg;
  cfg.entries = 4096;
  TimingErrorPredictor tep(cfg);
  EXPECT_EQ(tep.storage_bits(), 4096u * 24u);
}

TEST(Energy, ScalesWithVoltage) {
  StatSet s;
  s.inc("ev.fetch", 1000);
  s.inc("cycles", 1000);
  const EnergyModel em;
  const EnergyReport nominal = em.compute(s, 1.10);
  const EnergyReport low = em.compute(s, 0.97);
  EXPECT_GT(nominal.dynamic_nj, low.dynamic_nj);
  EXPECT_GT(nominal.leakage_nj, low.leakage_nj);
  EXPECT_NEAR(low.dynamic_nj / nominal.dynamic_nj, (0.97 * 0.97) / (1.1 * 1.1), 1e-9);
}

TEST(Energy, EdpIsEnergyTimesCycles) {
  StatSet s;
  s.inc("ev.commit", 500);
  s.inc("cycles", 2000);
  const EnergyModel em;
  const EnergyReport r = em.compute(s, 1.10);
  EXPECT_NEAR(r.edp, r.total_nj() * 2000.0, 1e-6);
}

TEST(Energy, MoreEventsMoreEnergy) {
  StatSet a, b;
  a.inc("ev.fu.alu", 100);
  a.inc("cycles", 100);
  b.inc("ev.fu.alu", 200);
  b.inc("cycles", 100);
  const EnergyModel em;
  EXPECT_GT(em.compute(b, 1.1).total_nj(), em.compute(a, 1.1).total_nj());
}

TEST(Energy, MemoryHierarchyEventsCount) {
  StatSet s;
  s.inc("cache.l2.misses", 10);
  s.inc("cycles", 1);
  const EnergyModel em;
  EXPECT_GT(em.compute(s, 1.1).dynamic_nj, 10 * 0.5);  // >= 10 memory events
}

TEST(Runner, OverheadMath) {
  RunResult base, x;
  base.ipc = 2.0;
  x.ipc = 1.6;
  base.energy.edp = 100.0;
  x.energy.edp = 125.0;
  const Overheads o = overhead_vs(base, x);
  EXPECT_NEAR(o.perf_pct, 25.0, 1e-9);
  EXPECT_NEAR(o.ed_pct, 25.0, 1e-9);
}

TEST(Runner, NormalizedToEpClampsAndDivides) {
  // A scheme that beats fault-free execution clamps to 0, not below.
  EXPECT_EQ(normalized_to_ep(-1.5, 4.0), 0.0);
  // No EP overhead to share: 0 whatever the scheme did.
  EXPECT_EQ(normalized_to_ep(2.0, 0.0), 0.0);
  EXPECT_EQ(normalized_to_ep(2.0, -3.0), 0.0);
  // Otherwise a plain ratio.
  EXPECT_DOUBLE_EQ(normalized_to_ep(1.0, 4.0), 0.25);
}

TEST(Runner, FaultFreeExecutionIsSupplyIndependent) {
  // A fault-free run has no fault model, so the supply moves only its
  // energy line; Table 1 reads its IPC column from the 1.04 V run.
  RunnerConfig rc;
  rc.instructions = 3000;
  rc.warmup = 1000;
  const ExperimentRunner runner(rc);
  const auto prof = workload::spec2006_profile("astar");
  const RunResult ref = runner.run(prof, std::nullopt, timing::SupplyPoints::kLowFault);
  for (const double vdd : {timing::SupplyPoints::kNominal, timing::SupplyPoints::kHighFault}) {
    const RunResult r = runner.run(prof, std::nullopt, vdd);
    EXPECT_EQ(r.committed, ref.committed) << vdd;
    EXPECT_EQ(r.cycles, ref.cycles) << vdd;
    EXPECT_EQ(r.ipc, ref.ipc) << vdd;
    EXPECT_EQ(r.cpi.slots, ref.cpi.slots) << vdd;
    EXPECT_EQ(r.stats.counters(), ref.stats.counters()) << vdd;
    EXPECT_EQ(r.stats.scalars(), ref.stats.scalars()) << vdd;
    EXPECT_NE(r.energy.edp, ref.energy.edp) << vdd;
  }
}

TEST(Runner, ComparativeSchemesOrder) {
  const auto schemes = comparative_schemes();
  ASSERT_EQ(schemes.size(), 5u);
  EXPECT_EQ(schemes[0].name, "razor");
  EXPECT_EQ(schemes[1].name, "ep");
  EXPECT_EQ(schemes[2].name, "abs");
  EXPECT_EQ(schemes[3].name, "ffs");
  EXPECT_EQ(schemes[4].name, "cds");
}

TEST(Runner, EndToEndSmallRun) {
  RunnerConfig rc;
  rc.instructions = 5000;
  rc.warmup = 2000;
  const ExperimentRunner runner(rc);
  const auto prof = workload::spec2006_profile("tonto");
  const RunResult ff = runner.run(prof, std::nullopt, 1.04);
  EXPECT_EQ(ff.committed, 5000u);
  EXPECT_GT(ff.ipc, 0.05);
  EXPECT_GT(ff.energy.total_nj(), 0.0);

  const RunResult ep = runner.run(prof, cpu::scheme_error_padding(), 0.97);
  EXPECT_EQ(ep.committed, 5000u);
  EXPECT_GT(ep.fault_rate_pct, 0.5);
  EXPECT_LT(ep.ipc, ff.ipc * 1.05);
}

TEST(Runner, DeterministicResults) {
  RunnerConfig rc;
  rc.instructions = 4000;
  rc.warmup = 1000;
  const ExperimentRunner runner(rc);
  const auto prof = workload::spec2006_profile("bzip2");
  const RunResult a = runner.run(prof, cpu::scheme_abs(), 0.97);
  const RunResult b = runner.run(prof, cpu::scheme_abs(), 0.97);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_DOUBLE_EQ(a.energy.edp, b.energy.edp);
}

}  // namespace
}  // namespace vasim::core
