// Tests for the completeness extensions: in-order-engine fault handling
// (Section 2.2) and configuration-sweep properties of the pipeline.
#include <gtest/gtest.h>

#include "src/cpu/pipeline.hpp"
#include "src/timing/fault_model.hpp"
#include "src/workload/profiles.hpp"
#include "src/workload/trace_generator.hpp"

namespace vasim::cpu {
namespace {

timing::FaultModel make_fm(double vdd, u64 seed = 7) {
  timing::PathModelConfig pcfg;
  pcfg.seed = seed;
  pcfg.p_faulty_high = 0.08;
  pcfg.p_faulty_low = 0.02;
  return timing::FaultModel(pcfg, vdd);
}

TEST(InOrderFaults, OracleRatesScale) {
  const timing::FaultModel fm = make_fm(0.97);
  int base = 0, scaled = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const Pc pc = 0x1000 + static_cast<Pc>(i % 4000) * 4;
    base += fm.query_inorder(pc, i, 0.0).faulty;
    scaled += fm.query_inorder(pc, i, 0.5).faulty;
  }
  EXPECT_EQ(base, 0);
  EXPECT_GT(scaled, n / 200);  // roughly 0.5 * 8% * band yield
  EXPECT_LT(scaled, n / 10);
}

TEST(InOrderFaults, StageDistributionFavoursMidPipeline) {
  const timing::FaultModel fm = make_fm(0.97);
  int fetch_decode = 0, mid = 0, total = 0;
  for (int i = 0; i < 400000; ++i) {
    const auto d = fm.query_inorder(0x1000 + static_cast<Pc>(i % 8000) * 4, i, 1.0);
    if (!d.faulty) continue;
    ++total;
    if (d.stage == timing::InOrderStage::kFetch || d.stage == timing::InOrderStage::kDecode) {
      ++fetch_decode;
    }
    if (d.stage == timing::InOrderStage::kRename || d.stage == timing::InOrderStage::kDispatch) {
      ++mid;
    }
  }
  ASSERT_GT(total, 100);
  // Section 2.2 / [17]: fetch and decode violations are rare.
  EXPECT_LT(fetch_decode, total / 4);
  EXPECT_GT(mid, total / 2);
}

TEST(InOrderFaults, DisabledByDefault) {
  const auto prof = workload::spec2006_profile("bzip2");
  workload::TraceGenerator g(prof);
  const timing::FaultModel fm = make_fm(0.97, prof.seed);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_razor(), &g, &fm, nullptr);
  const PipelineResult r = p.run(15000, 5000);
  EXPECT_EQ(r.stats.count("fault.inorder.stall"), 0u);
  EXPECT_EQ(r.stats.count("fault.inorder.replay"), 0u);
}

TEST(InOrderFaults, PredictorSchemesStallRazorReplays) {
  const auto prof = workload::spec2006_profile("bzip2");
  const timing::FaultModel fm = make_fm(0.97, prof.seed);

  SchemeConfig abs = scheme_abs();
  abs.inorder_fault_scale = 0.5;
  workload::TraceGenerator ga(prof);
  CoreConfig cfg;
  Pipeline pa(cfg, abs, &ga, &fm, nullptr);  // predictor unused for in-order path
  const PipelineResult ra = pa.run(15000, 5000);
  EXPECT_EQ(ra.committed, 15000u);
  EXPECT_GT(ra.stats.count("fault.inorder.stall"), 20u);

  SchemeConfig razor = scheme_razor();
  razor.inorder_fault_scale = 0.5;
  workload::TraceGenerator gr(prof);
  Pipeline pr(cfg, razor, &gr, &fm, nullptr);
  const PipelineResult rr = pr.run(15000, 5000);
  EXPECT_EQ(rr.committed, 15000u);
  EXPECT_GT(rr.stats.count("fault.inorder.replay"), 20u);
  // Replay recovery costs more than planned stalls.
  EXPECT_GT(rr.cycles, ra.cycles);
}

TEST(InOrderFaults, OverheadIsModest) {
  const auto prof = workload::spec2006_profile("gobmk");
  const timing::FaultModel fm = make_fm(0.97, prof.seed);
  auto run_with = [&](double scale) {
    SchemeConfig abs = scheme_abs();
    abs.inorder_fault_scale = scale;
    workload::TraceGenerator g(prof);
    CoreConfig cfg;
    Pipeline p(cfg, abs, &g, &fm, nullptr);
    return p.run(15000, 5000).cycles;
  };
  const Cycle off = run_with(0.0);
  const Cycle on = run_with(0.3);
  EXPECT_GE(on, off);
  EXPECT_LT(static_cast<double>(on), static_cast<double>(off) * 1.10)
      << "in-order handling must stay a minor cost (the paper calls these rare)";
}

// ---- configuration-sweep properties ---------------------------------------

struct ConfigCase {
  const char* name;
  int issue_width;
  int rob;
  int iq;
  int alus;
};

class ConfigSweep : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(ConfigSweep, CompletesAndStaysWithinStructuralBounds) {
  const ConfigCase c = GetParam();
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  CoreConfig cfg;
  cfg.issue_width = c.issue_width;
  cfg.fetch_width = c.issue_width;
  cfg.dispatch_width = c.issue_width;
  cfg.commit_width = c.issue_width;
  cfg.rob_entries = c.rob;
  cfg.iq_entries = c.iq;
  cfg.simple_alus = c.alus;
  Pipeline p(cfg, scheme_fault_free(), &g, nullptr, nullptr);
  const PipelineResult r = p.run(15000, 5000);
  EXPECT_EQ(r.committed, 15000u);
  EXPECT_GT(r.ipc(), 0.05);
  EXPECT_LE(r.ipc(), static_cast<double>(c.issue_width) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConfigSweep,
    ::testing::Values(ConfigCase{"narrow", 2, 32, 8, 1}, ConfigCase{"core1", 4, 128, 32, 2},
                      ConfigCase{"wide", 8, 256, 64, 4}, ConfigCase{"tiny_rob", 4, 16, 8, 2},
                      ConfigCase{"big_iq", 4, 128, 64, 3}),
    [](const ::testing::TestParamInfo<ConfigCase>& info) { return info.param.name; });

class WindowMonotonic : public ::testing::TestWithParam<int> {};

TEST_P(WindowMonotonic, LargerRobNeverHurtsMemoryBoundIpc) {
  const auto prof = workload::spec2006_profile("mcf");
  auto run_rob = [&](int rob) {
    workload::TraceGenerator g(prof);
    CoreConfig cfg;
    cfg.rob_entries = rob;
    Pipeline p(cfg, scheme_fault_free(), &g, nullptr, nullptr);
    return p.run(10000, 5000).ipc();
  };
  const int rob = GetParam();
  // MLP grows with window size on a miss-bound workload.
  EXPECT_GE(run_rob(rob * 2), run_rob(rob) * 0.95);
}

INSTANTIATE_TEST_SUITE_P(RobSizes, WindowMonotonic, ::testing::Values(16, 32, 64),
                         ::testing::PrintToStringParamName());

TEST(WrongPath, FetchesAndSquashesWithoutCommitting) {
  const auto prof = workload::spec2006_profile("mcf");  // mispredict-heavy
  workload::TraceGenerator g(prof);
  CoreConfig cfg;
  cfg.model_wrong_path = true;
  Pipeline p(cfg, scheme_fault_free(), &g, nullptr, nullptr);
  const PipelineResult r = p.run(15000, 5000);
  EXPECT_EQ(r.committed, 15000u);
  EXPECT_GT(r.stats.count("ev.wrongpath_fetch"), 200u);
  EXPECT_GT(r.stats.count("ev.squash"), 200u);
  // Commits must still be exactly the true path.
  EXPECT_EQ(r.stats.count("ev.commit"), 15000u);
}

TEST(WrongPath, BurnsEnergyButBarelyMovesIpc) {
  const auto prof = workload::spec2006_profile("gcc");
  auto run_with = [&](bool wp) {
    workload::TraceGenerator g(prof);
    CoreConfig cfg;
    cfg.model_wrong_path = wp;
    Pipeline p(cfg, scheme_fault_free(), &g, nullptr, nullptr);
    return p.run(15000, 5000);
  };
  const PipelineResult off = run_with(false);
  const PipelineResult on = run_with(true);
  // Extra issue/execute events from the wrong path...
  EXPECT_GT(on.stats.count("ev.select"), off.stats.count("ev.select"));
  // ...with only a second-order IPC effect (resolution still gates fetch).
  EXPECT_NEAR(on.ipc(), off.ipc(), 0.25 * off.ipc());
}

TEST(WrongPath, CoexistsWithReplayRecovery) {
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  timing::PathModelConfig pcfg{prof.seed, 0.12, 0.04};
  const timing::FaultModel fm(pcfg, 0.97);
  SchemeConfig razor = scheme_razor();
  razor.recovery = RecoveryModel::kSquashRefetch;
  CoreConfig cfg;
  cfg.model_wrong_path = true;
  Pipeline p(cfg, razor, &g, &fm, nullptr);
  const PipelineResult r = p.run(15000, 5000);
  EXPECT_EQ(r.committed, 15000u);
  EXPECT_GT(r.stats.count("fault.replays"), 50u);
  EXPECT_GT(r.stats.count("ev.wrongpath_fetch"), 50u);
}

TEST(SchemeProperties, EpNeverFasterThanFaultFree) {
  for (const char* name : {"bzip2", "sjeng", "xalancbmk"}) {
    const auto prof = workload::spec2006_profile(name);
    timing::PathModelConfig pcfg{prof.seed, prof.fr_high_pct / 100.0 * prof.fr_calib_high,
                                 prof.fr_low_pct / 100.0 * prof.fr_calib_low};
    const timing::FaultModel fm(pcfg, 0.97);
    workload::TraceGenerator gf(prof), ge(prof);
    CoreConfig cfg;
    Pipeline pf(cfg, scheme_fault_free(), &gf, nullptr, nullptr);
    const Cycle ff = pf.run(15000, 5000).cycles;
    // EP with an always-predicting oracle cannot beat fault-free: every
    // predicted fault costs a full stall cycle.
    struct AlwaysOracle final : FaultPredictor {
      const timing::FaultModel* fm;
      explicit AlwaysOracle(const timing::FaultModel* m) : fm(m) {}
      FaultPrediction predict(Pc pc, u64, Cycle now) override {
        const auto d = fm->query(pc, timing::FaultClass::kAluLike, now);
        return FaultPrediction{d.core_faulty, d.stage, false};
      }
      void train(Pc, u64, bool, timing::OooStage) override {}
      void mark_critical(Pc, u64, bool) override {}
    } oracle{&fm};
    Pipeline pe(cfg, scheme_error_padding(), &ge, &fm, &oracle);
    const Cycle ep = pe.run(15000, 5000).cycles;
    EXPECT_GE(ep, ff) << name;
  }
}

}  // namespace
}  // namespace vasim::cpu
