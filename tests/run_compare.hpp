// Bitwise RunResult comparison shared by the suites that assert two ways
// of running a job agree exactly: resume vs. straight run, pooled vs.
// sequential sweep, observed vs. unobserved run.
#ifndef VASIM_TESTS_RUN_COMPARE_HPP
#define VASIM_TESTS_RUN_COMPARE_HPP

#include <gtest/gtest.h>

#include "src/core/runner.hpp"
#include "src/core/sweep.hpp"

namespace vasim {

/// Every identity field of two results, compared exactly (doubles too).
inline void expect_bitwise_identical(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.vdd, b.vdd);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.warmup_cycles, b.warmup_cycles);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.fault_rate_pct, b.fault_rate_pct);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.predictor_accuracy, b.predictor_accuracy);
  EXPECT_EQ(a.energy.dynamic_nj, b.energy.dynamic_nj);
  EXPECT_EQ(a.energy.leakage_nj, b.energy.leakage_nj);
  EXPECT_EQ(a.energy.edp, b.energy.edp);
  EXPECT_EQ(a.cpi.slots, b.cpi.slots);
  EXPECT_EQ(a.stats.counters(), b.stats.counters());
  EXPECT_EQ(a.commit_trail, b.commit_trail);
  EXPECT_EQ(a.checker_checks, b.checker_checks);
  EXPECT_EQ(core::result_checksum(a), core::result_checksum(b));
  ASSERT_EQ(a.dvfs.has_value(), b.dvfs.has_value());
  if (a.dvfs) {
    EXPECT_EQ(a.dvfs->epochs, b.dvfs->epochs);
    EXPECT_EQ(a.dvfs->wall_units, b.dvfs->wall_units);
    EXPECT_EQ(a.dvfs->period_final, b.dvfs->period_final);
    EXPECT_EQ(a.dvfs->period_lo, b.dvfs->period_lo);
    EXPECT_EQ(a.dvfs->period_hi, b.dvfs->period_hi);
  }
}

}  // namespace vasim

#endif  // VASIM_TESTS_RUN_COMPARE_HPP
