// Cross-module integration tests: full experiment slices exercising the
// trace generators, fault model, TEP, pipeline and energy model together.
#include <gtest/gtest.h>

#include "src/core/runner.hpp"
#include "src/workload/profiles.hpp"

namespace vasim::core {
namespace {

RunnerConfig small_runner() {
  RunnerConfig rc;
  rc.instructions = 15000;
  rc.warmup = 10000;
  return rc;
}

TEST(Integration, SchemeOrderingHoldsAtHighFaultRate) {
  const ExperimentRunner runner(small_runner());
  const auto prof = workload::spec2006_profile("bzip2");
  const RunResult ff = runner.run(prof, std::nullopt, 0.97);
  const RunResult razor = runner.run(prof, cpu::scheme_razor(), 0.97);
  const RunResult ep = runner.run(prof, cpu::scheme_error_padding(), 0.97);
  const RunResult abs = runner.run(prof, cpu::scheme_abs(), 0.97);

  const double o_razor = overhead_vs(ff, razor).perf_pct;
  const double o_ep = overhead_vs(ff, ep).perf_pct;
  const double o_abs = overhead_vs(ff, abs).perf_pct;

  EXPECT_GT(o_razor, o_ep) << "replay-everything must cost more than padding";
  EXPECT_GT(o_ep, o_abs) << "padding must cost more than violation-aware scheduling";
  EXPECT_GT(o_razor, 5.0);
  EXPECT_LT(o_abs, o_ep);
}

TEST(Integration, EdOverheadTracksPerfOverhead) {
  const ExperimentRunner runner(small_runner());
  const auto prof = workload::spec2006_profile("gobmk");
  const RunResult ff = runner.run(prof, std::nullopt, 0.97);
  const RunResult ep = runner.run(prof, cpu::scheme_error_padding(), 0.97);
  const Overheads o = overhead_vs(ff, ep);
  // Table 1 rows show ED% >= perf% (energy also rises with fault handling).
  EXPECT_GT(o.ed_pct, 0.0);
  EXPECT_GE(o.ed_pct, o.perf_pct * 0.8);
}

TEST(Integration, FaultRatesScaleWithSupply) {
  const ExperimentRunner runner(small_runner());
  const auto prof = workload::spec2006_profile("xalancbmk");
  const RunResult low = runner.run(prof, cpu::scheme_razor(), 1.04);
  const RunResult high = runner.run(prof, cpu::scheme_razor(), 0.97);
  EXPECT_GT(low.fault_rate_pct, 0.3);
  EXPECT_GT(high.fault_rate_pct, low.fault_rate_pct * 2.0)
      << "0.97 V must fault much more than 1.04 V (Table 1)";
}

TEST(Integration, TepReachesHighCoverageQuickly) {
  const ExperimentRunner runner(small_runner());
  const auto prof = workload::spec2006_profile("libquantum");
  const RunResult abs = runner.run(prof, cpu::scheme_abs(), 0.97);
  // After warmup, nearly all recurring faults should be predicted+handled.
  EXPECT_GT(abs.predictor_accuracy, 0.85);
}

TEST(Integration, RazorNeverUsesPredictor) {
  const ExperimentRunner runner(small_runner());
  const auto prof = workload::spec2006_profile("astar");
  const RunResult razor = runner.run(prof, cpu::scheme_razor(), 0.97);
  EXPECT_EQ(razor.stats.count("fault.predicted"), 0u);
  EXPECT_EQ(razor.stats.count("fault.handled"), 0u);
}

TEST(Integration, AllBenchmarksCompleteUnderAbs) {
  RunnerConfig rc;
  rc.instructions = 4000;
  rc.warmup = 3000;
  const ExperimentRunner runner(rc);
  for (const auto& prof : workload::spec2006_profiles()) {
    const RunResult r = runner.run(prof, cpu::scheme_abs(), 0.97);
    EXPECT_EQ(r.committed, rc.instructions) << prof.name;
    EXPECT_GT(r.ipc, 0.02) << prof.name;
  }
}

TEST(Integration, FaultFreeIpcOrderingSpotChecks) {
  RunnerConfig rc;
  rc.instructions = 30000;
  rc.warmup = 30000;
  const ExperimentRunner runner(rc);
  const double mcf = runner.run(workload::spec2006_profile("mcf"), std::nullopt, 1.1).ipc;
  const double astar = runner.run(workload::spec2006_profile("astar"), std::nullopt, 1.1).ipc;
  const double sjeng = runner.run(workload::spec2006_profile("sjeng"), std::nullopt, 1.1).ipc;
  EXPECT_LT(mcf, astar);
  EXPECT_LT(astar, sjeng);
  EXPECT_LT(mcf, 0.7);
  EXPECT_GT(sjeng, 1.3);
}

}  // namespace
}  // namespace vasim::core
