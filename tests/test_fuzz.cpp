// Randomized configuration fuzzing: many (machine shape, workload, scheme,
// supply) combinations drawn from a seeded RNG, each checked against global
// invariants the simulator must never violate.  Every run also carries the
// semantics checker, so each fuzzed configuration is validated cycle by
// cycle against the paper's scheduling rules, not just by end-of-run
// counters.  Reproduce any seed with VASIM_FUZZ_SEEDS=<seed> (fuzz_util.hpp).
#include <gtest/gtest.h>

#include "src/check/semantics.hpp"
#include "src/core/tep.hpp"
#include "src/cpu/pipeline.hpp"
#include "src/timing/fault_model.hpp"
#include "src/workload/trace_generator.hpp"
#include "tests/fuzz_util.hpp"

namespace vasim::cpu {
namespace {

class FuzzSweep : public ::testing::TestWithParam<u64> {};

TEST_P(FuzzSweep, InvariantsHoldUnderRandomConfiguration) {
  // Random machine shape, workload, scheme and supply.
  const auto [cfg, prof, scheme, vdd] = fuzzutil::draw_config_case(GetParam());

  timing::PathModelConfig pcfg{prof.seed, prof.fr_high_pct / 100.0 * prof.fr_calib_high,
                               prof.fr_low_pct / 100.0 * prof.fr_calib_low};
  const timing::FaultModel fm(pcfg, vdd);
  core::TimingErrorPredictor tep({}, &fm.environment());

  workload::TraceGenerator gen(prof);
  Pipeline p(cfg, scheme, &gen, &fm, scheme.use_predictor ? &tep : nullptr);
  check::SemanticsChecker checker(cfg, scheme);
  checker.attach(p);
  const u64 target = 6000;
  const PipelineResult r = p.run(target, 3000);

  // 0. The semantics checker observed the whole run and found no violation
  //    of the paper's scheduling rules.
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.checks(), 0u);

  // --- invariants -----------------------------------------------------------
  // 1. Exactly the requested instructions commit.
  EXPECT_EQ(r.committed, target);
  EXPECT_EQ(r.stats.count("ev.commit"), target);
  // 2. The machine makes progress within its structural ceiling.
  EXPECT_GT(r.ipc(), 0.01);
  EXPECT_LE(r.ipc(), static_cast<double>(cfg.issue_width) + 1e-9);
  // 3. Fault accounting is conservative: handled faults never exceed actual.
  const u64 actual = r.stats.count("fault.actual");
  EXPECT_LE(r.stats.count("fault.handled"), actual);
  // 4. Predictions imply a predictor-based scheme.
  if (!scheme.use_predictor) {
    EXPECT_EQ(r.stats.count("fault.predicted"), 0u);
    EXPECT_EQ(r.stats.count("fault.handled"), 0u);
  }
  // 5. EP stalls only under the EP scheme.
  if (!scheme.error_padding && scheme.recovery == RecoveryModel::kSquashRefetch &&
      scheme.inorder_fault_scale == 0.0) {
    EXPECT_EQ(r.stats.count("ep.stalls"), r.stats.count("ev.stall_cycles"));
  }
  // 6. Committed-path fault rate is bounded by the dynamic fault count plus
  //    safe re-executions.
  EXPECT_LE(r.stats.count("fault.committed_faulty"), actual + r.stats.count("fault.replays"));
  // 7. Select accounting: issued instructions match regread events.
  EXPECT_EQ(r.stats.count("ev.select"), r.stats.count("ev.regread"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::ValuesIn(vasim::fuzzutil::seeds("config", 1, 20)),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace vasim::cpu
