// Adaptive clocking subsystem (src/adapt/, docs/adaptive.md): config
// validation, the state-dependent delay model, the static-policy identity
// guarantee (kStatic is bitwise today's behavior), controller behavior at
// both ends of the supply range, determinism across worker counts, snapshot
// round-trips per policy and the cross-policy warm-start rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/adapt/clock.hpp"
#include "src/adapt/controller.hpp"
#include "src/adapt/dvfs.hpp"
#include "src/core/runner.hpp"
#include "src/core/snapshot.hpp"
#include "src/core/sweep.hpp"
#include "src/obs/timeline.hpp"
#include "src/timing/process_variation.hpp"
#include "src/timing/state_delay.hpp"
#include "src/workload/profiles.hpp"
#include "tests/run_compare.hpp"

namespace vasim {
namespace {

core::RunnerConfig adapt_config(adapt::DvfsPolicy policy) {
  core::RunnerConfig rc;
  rc.instructions = 6'000;
  rc.warmup = 2'000;
  rc.dvfs.policy = policy;
  rc.dvfs.epoch = 500;  // many controller steps within the tiny run
  return rc;
}

// ---- configuration ---------------------------------------------------------

TEST(DvfsConfigV, PolicyNamesRoundTripAndUnknownIsNamed) {
  for (const auto p : {adapt::DvfsPolicy::kStatic, adapt::DvfsPolicy::kReactive,
                       adapt::DvfsPolicy::kPredictive}) {
    EXPECT_EQ(adapt::dvfs_policy_from_string(adapt::to_string(p)), p);
  }
  try {
    (void)adapt::dvfs_policy_from_string("turbo");
    FAIL() << "unknown policy accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("turbo"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("dvfs"), std::string::npos);
  }
}

TEST(DvfsConfigV, EveryKnobValidatesByName) {
  const auto expect_named = [](adapt::DvfsConfig cfg, const std::string& knob) {
    try {
      adapt::validate_dvfs_config(cfg);
      FAIL() << "accepted bad " << knob;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(knob), std::string::npos) << e.what();
    }
  };
  adapt::DvfsConfig ok;
  EXPECT_NO_THROW(adapt::validate_dvfs_config(ok));

  adapt::DvfsConfig c = ok;
  c.epoch = 0;
  expect_named(c, "dvfs.epoch");
  c = ok;
  c.period_min_permille = 700;
  expect_named(c, "dvfs.period_min_permille");
  c = ok;
  c.period_max_permille = 2'000;
  expect_named(c, "dvfs.period_max_permille");
  c = ok;
  c.target_violation_pct = -1.0;
  expect_named(c, "dvfs.target_violation_pct");
  c = ok;
  c.quiet_epochs = 0;
  expect_named(c, "dvfs.quiet_epochs");
  c = ok;
  c.step_permille = 0;
  expect_named(c, "dvfs.step_permille");
}

TEST(DvfsConfigV, CodecRoundTripsAndRejectsJunkPolicyByte) {
  adapt::DvfsConfig cfg;
  cfg.policy = adapt::DvfsPolicy::kPredictive;
  cfg.epoch = 777;
  cfg.period_min_permille = 960;
  cfg.period_max_permille = 1'100;
  cfg.target_violation_pct = 1.25;
  cfg.quiet_epochs = 5;
  cfg.step_permille = 10;
  snap::Writer w;
  adapt::put_dvfs_config(w, cfg);
  snap::Reader r(w.data());
  const adapt::DvfsConfig back = adapt::get_dvfs_config(r);
  EXPECT_EQ(back.policy, cfg.policy);
  EXPECT_EQ(back.epoch, cfg.epoch);
  EXPECT_EQ(back.period_min_permille, cfg.period_min_permille);
  EXPECT_EQ(back.period_max_permille, cfg.period_max_permille);
  EXPECT_EQ(back.target_violation_pct, cfg.target_violation_pct);
  EXPECT_EQ(back.quiet_epochs, cfg.quiet_epochs);
  EXPECT_EQ(back.step_permille, cfg.step_permille);

  snap::Writer junk;
  junk.put_u8(99);  // not a policy
  snap::Reader jr(junk.data());
  EXPECT_THROW((void)adapt::get_dvfs_config(jr), snap::SnapshotError);
}

// ---- state-dependent delay model -------------------------------------------

TEST(AdaptStateDelay, DeterministicClampedAndStateSensitive) {
  const timing::StateDelayConfig cfg;
  timing::ProcessConfig pc;
  pc.seed = 7;
  const timing::ProcessVariation pv(pc);
  const timing::StateDelayModel m(cfg, pv, 1.04);
  const timing::StateDelayModel m2(cfg, pv, 1.04);

  bool any_state_effect = false;
  for (u64 sig = 0; sig < 64; ++sig) {
    const double f = m.factor(0x400100, sig, timing::FaultClass::kAluLike);
    EXPECT_EQ(f, m2.factor(0x400100, sig, timing::FaultClass::kAluLike));  // deterministic
    EXPECT_GE(f, 1.0 - cfg.clamp);
    EXPECT_LE(f, 1.0 + cfg.clamp);
    if (f != m.factor(0x400100, sig + 64, timing::FaultClass::kAluLike)) {
      any_state_effect = true;
    }
  }
  EXPECT_TRUE(any_state_effect) << "operand signature never changed the factor";
}

TEST(AdaptStateDelay, SigmaWidensAsSupplyDrops) {
  const timing::StateDelayConfig cfg;
  timing::ProcessConfig pc;
  pc.seed = 7;
  const timing::ProcessVariation pv(pc);
  const timing::StateDelayModel nominal(cfg, pv, cfg.vdd_nominal);
  const timing::StateDelayModel sagging(cfg, pv, 0.90);
  EXPECT_GT(sagging.sigma(), nominal.sigma());
  // Above-nominal supplies never tighten below the base spread.
  const timing::StateDelayModel boosted(cfg, pv, cfg.vdd_nominal + 0.05);
  EXPECT_GE(boosted.sigma(), 0.0);
  EXPECT_LE(boosted.sigma(), nominal.sigma());
}

// ---- static identity -------------------------------------------------------

TEST(AdaptStaticIdentity, StaticPolicyIsBitwiseDefaultBehavior) {
  const auto prof = workload::spec2006_profile("bzip2");
  const auto scheme = core::scheme_by_name("abs");

  core::RunnerConfig plain;
  plain.instructions = 4'000;
  plain.warmup = 1'500;
  core::RunnerConfig statc = plain;
  statc.dvfs.policy = adapt::DvfsPolicy::kStatic;  // explicit, same as default
  statc.dvfs.epoch = 123;                          // inert without a policy

  const core::RunResult a = core::ExperimentRunner(plain).run(prof, *scheme, 0.97);
  const core::RunResult b = core::ExperimentRunner(statc).run(prof, *scheme, 0.97);
  expect_bitwise_identical(a, b);
  EXPECT_FALSE(a.dvfs.has_value());
  EXPECT_FALSE(b.dvfs.has_value());
  // No adaptive counters leak into static stats (registry geometry pinned).
  for (const auto& [name, value] : a.stats.counters()) {
    EXPECT_EQ(name.rfind("dvfs.", 0), std::string::npos) << name << " = " << value;
  }
}

TEST(AdaptStaticIdentity, FaultFreeBaselineIgnoresAdaptivePolicies) {
  const auto prof = workload::spec2006_profile("gcc");
  const core::RunResult statc = core::ExperimentRunner(adapt_config(adapt::DvfsPolicy::kStatic))
                                     .run(prof, std::nullopt, 1.04);
  const core::RunResult adaptive =
      core::ExperimentRunner(adapt_config(adapt::DvfsPolicy::kReactive))
          .run(prof, std::nullopt, 1.04);
  expect_bitwise_identical(statc, adaptive);
  EXPECT_FALSE(adaptive.dvfs.has_value());
}

// ---- controller behavior ---------------------------------------------------

TEST(DvfsBehavior, ReactiveRaisesThePeriodUnderViolationPressure) {
  const auto prof = workload::spec2006_profile("bzip2");
  const auto scheme = core::scheme_by_name("abs");
  const core::ExperimentRunner runner(adapt_config(adapt::DvfsPolicy::kReactive));
  const core::RunResult r = runner.run(prof, *scheme, 0.97);  // violation-heavy supply

  ASSERT_TRUE(r.dvfs.has_value());
  EXPECT_EQ(r.dvfs->policy, "reactive");
  EXPECT_GT(r.dvfs->epochs, 4u);
  EXPECT_GT(r.dvfs->wall_units, 0u);
  EXPECT_EQ(r.dvfs->epochs, r.dvfs->trajectory.size());
  EXPECT_GT(r.dvfs->period_hi, 1'000u) << "never slowed down at 0.97 V";
  EXPECT_LE(r.dvfs->period_hi, runner.config().dvfs.period_max_permille);
  EXPECT_GE(r.dvfs->period_lo, runner.config().dvfs.period_min_permille);
  // The scalar inputs ride stats and therefore the checksums.  Stats are
  // measured-window deltas; the trajectory covers the whole run (warmup
  // included), so the stat counts fewer epochs than the trajectory holds.
  EXPECT_EQ(r.stats.count("dvfs.wall_units"), r.dvfs->wall_units);
  EXPECT_GT(r.stats.count("dvfs.epochs"), 0u);
  EXPECT_LT(r.stats.count("dvfs.epochs"), r.dvfs->epochs);
}

TEST(DvfsBehavior, PredictiveOverclocksAtNominalSupply) {
  const auto prof = workload::spec2006_profile("bzip2");
  const auto scheme = core::scheme_by_name("abs");
  core::RunnerConfig rc = adapt_config(adapt::DvfsPolicy::kPredictive);
  rc.instructions = 10'000;  // enough epochs to explore downward
  const core::ExperimentRunner runner(rc);
  const core::RunResult r = runner.run(prof, *scheme, 1.10);  // headroom supply

  ASSERT_TRUE(r.dvfs.has_value());
  EXPECT_EQ(r.dvfs->policy, "predictive");
  EXPECT_LT(r.dvfs->period_lo, 1'000u) << "never exploited the 1.10 V headroom";
  EXPECT_GT(r.dvfs->throughput, r.ipc)
      << "overclocking must beat IPC in instructions per nominal cycle";
  EXPECT_LE(r.fault_rate_pct, rc.dvfs.target_violation_pct * 4.0)
      << "exploration blew way past the violation budget";
}

TEST(DvfsBehavior, TimelineCarriesThePeriodSeries) {
  const auto prof = workload::spec2006_profile("bzip2");
  const auto scheme = core::scheme_by_name("abs");
  core::RunnerConfig rc = adapt_config(adapt::DvfsPolicy::kReactive);
  rc.timeline_interval = 500;
  const core::RunResult r = core::ExperimentRunner(rc).run(prof, *scheme, 0.97);
  ASSERT_TRUE(r.timeline != nullptr);
  ASSERT_TRUE(r.timeline->has_period_series());
  bool moved = false;
  for (std::size_t w = 0; w < r.timeline->windows(); ++w) {
    if (r.timeline->period_permille(w) != 1000.0) moved = true;
  }
  EXPECT_TRUE(moved) << "period series flat at 0.97 V under the reactive policy";

  rc.dvfs.policy = adapt::DvfsPolicy::kStatic;
  const core::RunResult s = core::ExperimentRunner(rc).run(prof, *scheme, 0.97);
  ASSERT_TRUE(s.timeline != nullptr);
  EXPECT_FALSE(s.timeline->has_period_series());
}

// ---- cross-path determinism ------------------------------------------------

std::vector<core::SweepJob> adapt_grid() {
  std::vector<core::SweepJob> jobs;
  for (const char* bench : {"bzip2", "gcc"}) {
    for (const double vdd : {0.97, 1.10}) {
      jobs.push_back({workload::spec2006_profile(bench), core::scheme_by_name("abs"), vdd,
                      std::nullopt});
      jobs.push_back({workload::spec2006_profile(bench), std::nullopt, vdd, std::nullopt});
    }
  }
  return jobs;  // 8 jobs: scheme + fault-free at each cell
}

void expect_paths_agree(adapt::DvfsPolicy policy) {
  const std::vector<core::SweepJob> jobs = adapt_grid();
  const core::RunnerConfig rc = adapt_config(policy);

  const core::SweepRunner sequential(rc, 1);
  const core::SweepReport base = sequential.run(jobs);
  const u64 want = core::sweep_checksum(base);

  const core::SweepRunner pooled(rc, 3);
  EXPECT_EQ(core::sweep_checksum(pooled.run(jobs)), want) << "worker count changed results";

  // Per-job shape: scheme jobs carry the dvfs summary, fault-free jobs not.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const core::RunResult& r = base.jobs[i].result;
    if (jobs[i].scheme) {
      ASSERT_TRUE(r.dvfs.has_value()) << "scheme job " << i;
      EXPECT_EQ(r.dvfs->policy, adapt::to_string(policy));
      EXPECT_EQ(r.dvfs->epochs, r.dvfs->trajectory.size());
    } else {
      EXPECT_FALSE(r.dvfs.has_value()) << "fault-free job " << i;
    }
  }
}

// The names predate the removal of the batch and shard paths; they stay so
// that test identity is stable.
TEST(DvfsDeterminism, ReactiveAgreesAcrossJobsBatchAndShardPaths) {
  expect_paths_agree(adapt::DvfsPolicy::kReactive);
}

TEST(DvfsDeterminism, PredictiveAgreesAcrossJobsBatchAndShardPaths) {
  expect_paths_agree(adapt::DvfsPolicy::kPredictive);
}

TEST(DvfsDeterminism, PoliciesActuallyDiverge) {
  const auto prof = workload::spec2006_profile("bzip2");
  const auto scheme = core::scheme_by_name("abs");
  const core::RunResult reactive =
      core::ExperimentRunner(adapt_config(adapt::DvfsPolicy::kReactive)).run(prof, *scheme, 0.97);
  const core::RunResult predictive =
      core::ExperimentRunner(adapt_config(adapt::DvfsPolicy::kPredictive))
          .run(prof, *scheme, 0.97);
  EXPECT_NE(core::result_checksum(reactive), core::result_checksum(predictive))
      << "both adaptive policies produced identical runs -- controllers inert?";
}

// ---- snapshots -------------------------------------------------------------

TEST(DvfsSnapshot, RestoreThenRunIsBitwiseIdenticalPerPolicy) {
  const auto prof = workload::spec2006_profile("bzip2");
  const auto scheme = core::scheme_by_name("abs");
  for (const auto policy : {adapt::DvfsPolicy::kReactive, adapt::DvfsPolicy::kPredictive}) {
    const core::RunnerConfig rc = adapt_config(policy);
    const core::ExperimentRunner runner(rc);
    const core::RunResult straight = runner.run(prof, *scheme, 0.97);

    // Capture mid-run, past the warmup boundary: controller state (quiet
    // counters, EWMA tables) must ride the ADPT chunk for the resumed run to
    // take identical decisions.
    const core::RunSnapshot snap =
        runner.capture(prof, scheme, 0.97, rc.warmup + 3 * rc.dvfs.epoch / 2);
    EXPECT_EQ(snap.meta().dvfs.policy, policy);
    expect_bitwise_identical(runner.run_from(snap), straight);
    ASSERT_TRUE(straight.dvfs.has_value());
  }
}

TEST(DvfsSnapshot, CrossPolicyWarmStartIsRejected) {
  const auto prof = workload::spec2006_profile("bzip2");
  const auto scheme = core::scheme_by_name("abs");
  const core::ExperimentRunner reactive(adapt_config(adapt::DvfsPolicy::kReactive));
  const core::RunSnapshot snap = reactive.capture(prof, scheme, 0.97, 2'500);

  // Same machine, different policy: the warmup key folds the DvfsConfig, so
  // the resume must be rejected instead of silently mixing controllers.
  EXPECT_THROW((void)core::ExperimentRunner(adapt_config(adapt::DvfsPolicy::kPredictive))
                   .run_from(snap),
               snap::SnapshotError);
  EXPECT_THROW(
      (void)core::ExperimentRunner(adapt_config(adapt::DvfsPolicy::kStatic)).run_from(snap),
      snap::SnapshotError);
  core::RunnerConfig other_epoch = adapt_config(adapt::DvfsPolicy::kReactive);
  other_epoch.dvfs.epoch += 1;  // any knob change re-keys the warmup
  EXPECT_THROW((void)core::ExperimentRunner(other_epoch).run_from(snap), snap::SnapshotError);
  expect_bitwise_identical(reactive.run_from(snap), reactive.run(prof, *scheme, 0.97));
}

TEST(DvfsSnapshot, ControllerStateCodecRoundTrips) {
  adapt::DvfsConfig cfg;
  cfg.policy = adapt::DvfsPolicy::kPredictive;
  adapt::PredictiveController ctrl(cfg);
  adapt::EpochStats e;
  e.committed = 500;
  e.cycles = 700;
  e.violations = 3;
  e.ipc = 0.71;
  e.violation_pct = 0.6;
  e.mem_fraction = 0.2;
  u32 period = 1'000;
  for (int i = 0; i < 5; ++i) {
    e.epoch_index = static_cast<u64>(i);
    period = ctrl.next_period(e, period);
  }
  snap::Writer w;
  ctrl.save_state(w);

  adapt::PredictiveController back(cfg);
  snap::Reader r(w.data());
  back.restore_state(r);
  // Same state, same inputs: decisions continue identically.
  for (int i = 5; i < 10; ++i) {
    e.epoch_index = static_cast<u64>(i);
    const u32 a = ctrl.next_period(e, period);
    const u32 b = back.next_period(e, period);
    EXPECT_EQ(a, b) << "step " << i;
    period = a;
  }
}

TEST(DvfsSnapshot, HugeTrajectoryCountIsRejectedByName) {
  // A static domain has no controller, so its ADPT payload ends with the
  // (empty) trajectory's u32 count.
  const adapt::ClockDomain saved(adapt::DvfsConfig{}, 0.97);
  snap::Writer w;
  saved.save_state(w);
  std::vector<unsigned char> bytes = w.take();
  ASSERT_GE(bytes.size(), 4u);
  std::fill(bytes.end() - 4, bytes.end(), 0xFF);

  adapt::ClockDomain back(adapt::DvfsConfig{}, 0.97);
  snap::Reader r(bytes);
  try {
    back.restore_state(r);
    FAIL() << "a trajectory count of 0xFFFFFFFF was accepted";
  } catch (const snap::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("ADPT trajectory"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace vasim
