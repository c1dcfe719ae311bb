// SweepRunner / ThreadPool behaviour: determinism across worker counts,
// submission-order preservation, exception containment, the JSON sink, and
// the pooled sweep path (pooled-vs-sequential bitwise identity over
// fuzz-seeded grids with the semantics checker attached, mixed run lengths,
// warm-start composition, the set_batch(1) pin).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/snapshot.hpp"
#include "src/core/sweep.hpp"
#include "src/workload/profiles.hpp"
#include "tests/fuzz_util.hpp"
#include "tests/run_compare.hpp"

namespace vasim {
namespace {

core::RunnerConfig small_config() {
  core::RunnerConfig rc;
  rc.instructions = 3'000;
  rc.warmup = 1'000;
  return rc;
}

std::vector<core::SweepJob> small_grid() {
  std::vector<core::SweepJob> jobs;
  const auto bzip2 = workload::spec2006_profile("bzip2");
  const auto gobmk = workload::spec2006_profile("gobmk");
  for (const auto& prof : {bzip2, gobmk}) {
    jobs.push_back({prof, std::nullopt, 0.97, std::nullopt});
    for (const auto& scheme : core::comparative_schemes()) {
      jobs.push_back({prof, scheme, 0.97, std::nullopt});
    }
  }
  return jobs;
}

core::RunnerConfig pooled_config() {
  core::RunnerConfig rc;
  rc.instructions = 2'000;
  rc.warmup = 800;
  return rc;
}

// Pooling may perturb neither the pieces that feed sweep_checksum (stats
// counters) nor the ones that do not (trail, checker_checks).
TEST(SweepRunner, ResultsIdenticalAcrossWorkerCounts) {
  const std::vector<core::SweepJob> jobs = small_grid();
  const core::SweepRunner one(small_config(), 1);
  const core::SweepRunner four(small_config(), 4);
  const std::vector<core::RunResult> r1 = one.run_results(jobs);
  const std::vector<core::RunResult> r4 = four.run_results(jobs);
  ASSERT_EQ(r1.size(), jobs.size());
  ASSERT_EQ(r4.size(), jobs.size());
  for (std::size_t i = 0; i < r1.size(); ++i) expect_bitwise_identical(r1[i], r4[i]);
  EXPECT_EQ(core::sweep_checksum(r1), core::sweep_checksum(r4));
}

TEST(SweepRunner, PreservesSubmissionOrder) {
  const std::vector<core::SweepJob> jobs = small_grid();
  const core::SweepRunner four(small_config(), 4);
  const core::SweepReport report = four.run(jobs);
  ASSERT_EQ(report.jobs.size(), jobs.size());
  EXPECT_EQ(report.workers, 4u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const core::RunResult& r = report.jobs[i].result;
    EXPECT_EQ(r.benchmark, jobs[i].profile.name) << "job " << i;
    EXPECT_EQ(r.scheme, jobs[i].scheme ? jobs[i].scheme->name : "fault-free") << "job " << i;
    EXPECT_EQ(r.vdd, jobs[i].vdd) << "job " << i;
    EXPECT_GT(r.committed, 0u) << "job " << i;
    EXPECT_GE(report.jobs[i].wall_ms, 0.0);
  }
}

TEST(SweepRunner, ThrowingJobDoesNotDeadlockAndIsReported) {
  std::vector<core::SweepJob> jobs = small_grid();
  // An impossible machine: Pipeline's constructor rejects a physical
  // register file smaller than the architectural one.
  core::RunnerConfig broken = small_config();
  broken.core.phys_regs = 1;
  jobs[2].config = broken;
  const core::SweepRunner four(small_config(), 4);
  EXPECT_THROW({ (void)four.run(jobs); }, std::invalid_argument);
  // The pool survives a throwing job: the same runner still completes a
  // healthy grid afterwards.
  jobs[2].config.reset();
  const core::SweepReport report = four.run(jobs);
  EXPECT_EQ(report.jobs.size(), jobs.size());
}

TEST(SweepRunner, PerJobConfigOverridesRunLength) {
  const auto bzip2 = workload::spec2006_profile("bzip2");
  core::RunnerConfig longer = small_config();
  longer.instructions = 6'000;
  std::vector<core::SweepJob> jobs;
  jobs.push_back({bzip2, std::nullopt, 0.97, std::nullopt});
  jobs.push_back({bzip2, std::nullopt, 0.97, longer});
  const core::SweepRunner runner(small_config(), 2);
  const std::vector<core::RunResult> r = runner.run_results(jobs);
  EXPECT_EQ(r[0].committed, 3'000u);
  EXPECT_EQ(r[1].committed, 6'000u);
}

TEST(SweepRunner, ChecksumDetectsAnyFieldChange) {
  const core::SweepRunner runner(small_config(), 2);
  std::vector<core::RunResult> r = runner.run_results(small_grid());
  const u64 base = core::sweep_checksum(r);
  r[3].cycles += 1;
  EXPECT_NE(base, core::sweep_checksum(r));
}

TEST(SweepJson, EmitsValidStructure) {
  const core::SweepRunner runner(small_config(), 2);
  core::SweepReport report = runner.run(small_grid());
  std::ostringstream os;
  core::write_sweep_json(os, "unit", report);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"simulations\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"warmup_groups\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"workers\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"scheme\": \"razor\""), std::string::npos);
  EXPECT_NE(json.find("\"checksum\""), std::string::npos);
  EXPECT_NE(json.find("\"cpi\""), std::string::npos);
  EXPECT_NE(json.find("\"squash_refetch\""), std::string::npos);
  // Every job serialized.
  std::size_t count = 0;
  for (std::size_t at = json.find("\"benchmark\""); at != std::string::npos;
       at = json.find("\"benchmark\"", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, report.jobs.size());
  // Balanced braces/brackets (cheap well-formedness check; no JSON parser
  // in the toolchain).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(SweepJson, EmitsHistogramPercentilesPerJob) {
  // No pipeline registers a histogram today, so the percentile emission is
  // pinned on a hand-built report: any stats scalar triple <base>.p50/.p95/
  // .p99 must surface as a per-job "percentiles" object.
  const core::SweepRunner runner(small_config(), 1);
  core::SweepReport report = runner.run({{workload::spec2006_profile("bzip2"), std::nullopt,
                                          0.97, std::nullopt}});
  ASSERT_EQ(report.jobs.size(), 1u);
  core::RunResult& r = report.jobs[0].result;
  // Exactly representable doubles so the %.17g serialization is predictable.
  r.stats.set("lat.replay.p50", 0.5);
  r.stats.set("lat.replay.p95", 0.75);
  r.stats.set("lat.replay.p99", 0.875);

  std::ostringstream os;
  core::write_sweep_json(os, "unit", report);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"percentiles\": {\"lat.replay\": "), std::string::npos);
  EXPECT_NE(json.find("\"p50\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"p95\": 0.75"), std::string::npos);
  EXPECT_NE(json.find("\"p99\": 0.875"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ThreadPool, RunsAllTasksAndWaitsIdle) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
  // The pool is reusable after an idle wait.
  pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 101);
}

TEST(ThreadPool, ThrowingTaskDoesNotKillWorkers) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&done, i] {
      if (i % 3 == 0) throw std::runtime_error("boom");
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 13);  // 20 minus the 7 throwers (i = 0,3,...,18)
}

// ---- pooled sweep path ------------------------------------------------------
//
// The BatchLockstep cases once compared a lockstep batch engine with single
// runs.  The engine is gone; each case keeps the property it pinned on the
// sweep path that remains: a pool of workers, one job per task.

TEST(BatchLockstep, ChecksumIdenticalAcrossWidthsOverFuzzSeeds) {
  const char* benches[] = {"bzip2", "gcc", "gobmk", "sjeng", "mcf", "tonto"};
  const char* schemes[] = {"fault-free", "razor", "ep", "abs", "ffs", "cds"};
  const double vdds[] = {0.97, 1.04};

  for (const u64 seed : fuzzutil::seeds("batch", 21'000, 4)) {
    Pcg32 rng(seed, 0xba7cULL);
    core::RunnerConfig rc = pooled_config();
    rc.check_semantics = true;  // every job validated cycle by cycle
    std::vector<core::SweepJob> jobs;
    const std::size_t n = 3 + rng.next_below(4);  // 3..6 jobs
    for (std::size_t j = 0; j < n; ++j) {
      const auto prof = workload::spec2006_profile(benches[rng.next_u32() % 6]);
      const std::string scheme_name = schemes[rng.next_u32() % 6];
      const std::optional<cpu::SchemeConfig> scheme =
          scheme_name == "fault-free" ? std::optional<cpu::SchemeConfig>{}
                                      : core::scheme_by_name(scheme_name);
      const double vdd = scheme ? vdds[rng.next_u32() % 2] : 0.97;
      jobs.push_back({prof, scheme, vdd, std::nullopt});
    }

    const core::SweepRunner single(rc, 1);
    const core::SweepRunner pooled(rc, 1 + rng.next_below(4));  // widths 1..4, seed-chosen

    const std::vector<core::RunResult> r1 = single.run_results(jobs);
    const std::vector<core::RunResult> rp = pooled.run_results(jobs);
    ASSERT_EQ(r1.size(), jobs.size()) << "seed " << seed;
    ASSERT_EQ(rp.size(), jobs.size()) << "seed " << seed;
    for (std::size_t i = 0; i < r1.size(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " job " + std::to_string(i));
      expect_bitwise_identical(r1[i], rp[i]);
      EXPECT_GT(rp[i].checker_checks, 0u);  // a pass with 0 checks is blind
    }
    EXPECT_EQ(core::sweep_checksum(r1), core::sweep_checksum(rp)) << "seed " << seed;
  }
}

TEST(BatchLockstep, MidBatchRetirementCompactsWithoutPerturbingSurvivors) {
  // Heterogeneous run lengths in one pooled sweep: short jobs finish while
  // long ones are still running.  Every job must still match its solo
  // ExperimentRunner run exactly.  Lengths include warmup == 0 (a job that
  // is born measuring).
  const auto bzip2 = workload::spec2006_profile("bzip2");
  const auto gobmk = workload::spec2006_profile("gobmk");
  struct Shape {
    u64 instructions;
    u64 warmup;
  };
  const Shape shapes[] = {{500, 200}, {6'000, 800}, {1'500, 0}, {3'000, 1'200}, {700, 100}};
  std::vector<core::SweepJob> jobs;
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    core::RunnerConfig rc = pooled_config();
    rc.instructions = shapes[i].instructions;
    rc.warmup = shapes[i].warmup;
    jobs.push_back({i % 2 == 0 ? bzip2 : gobmk,
                    i % 2 == 0 ? std::optional(core::scheme_by_name("razor").value())
                               : std::nullopt,
                    0.97, rc});
  }

  const core::SweepRunner pooled(pooled_config(), jobs.size());
  const std::vector<core::RunResult> rp = pooled.run_results(jobs);
  ASSERT_EQ(rp.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const core::ExperimentRunner solo(*jobs[i].config);
    const core::RunResult rs = solo.run(jobs[i].profile, jobs[i].scheme, jobs[i].vdd);
    expect_bitwise_identical(rs, rp[i]);
    EXPECT_EQ(rp[i].committed, shapes[i].instructions);
  }
}

TEST(BatchLockstep, WidthEdgesBatchWiderThanGridAndZeroClamp) {
  const auto bzip2 = workload::spec2006_profile("bzip2");
  std::vector<core::SweepJob> jobs;
  jobs.push_back({bzip2, std::nullopt, 0.97, std::nullopt});
  jobs.push_back({bzip2, core::scheme_by_name("ep"), 0.97, std::nullopt});

  const core::SweepRunner wide(pooled_config(), 16);  // pool > jobs
  const core::SweepRunner narrow(pooled_config(), 1);
  const std::vector<core::RunResult> rw = wide.run_results(jobs);
  const std::vector<core::RunResult> rn = narrow.run_results(jobs);
  ASSERT_EQ(rw.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) expect_bitwise_identical(rw[i], rn[i]);

  // A zero width is an error now, not a value to clamp.
  core::SweepRunner sweeper(pooled_config(), 1);
  EXPECT_THROW(sweeper.set_batch(0), std::invalid_argument);
}

TEST(BatchLockstep, ComposesWithWarmStartSharing) {
  // Warm-start accounting on a pooled sweep counts the shared warmups and
  // leaves every result exactly as a sequential plain sweep's.
  std::vector<core::SweepJob> jobs;
  for (const auto& name : {"bzip2", "gobmk"}) {
    const auto prof = workload::spec2006_profile(name);
    jobs.push_back({prof, std::nullopt, 0.97, std::nullopt});
    jobs.push_back({prof, std::nullopt, 1.10, std::nullopt});
    jobs.push_back({prof, core::scheme_by_name("razor"), 0.97, std::nullopt});
  }
  const core::SweepRunner plain(pooled_config(), 1);
  core::SweepRunner warm_pooled(pooled_config(), 3);
  warm_pooled.set_reuse_warmup(true);

  const core::SweepReport a = plain.run(jobs);
  const core::SweepReport b = warm_pooled.run(jobs);
  EXPECT_EQ(core::sweep_checksum(a), core::sweep_checksum(b));
  EXPECT_EQ(b.warmup_groups, 2u);  // one fault-free pair per profile
  EXPECT_GT(b.warmup_cycles_simulated, 0u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_bitwise_identical(a.jobs[i].result, b.jobs[i].result);
  }
}

TEST(BatchLockstep, PooledBatchesMatchSequentialSingles) {
  // workers > 1: each pool task runs one job; results must still be bitwise
  // those of the sequential sweep.
  const std::vector<core::SweepJob> jobs = [] {
    std::vector<core::SweepJob> g;
    for (const auto& name : {"bzip2", "gobmk", "mcf"}) {
      const auto prof = workload::spec2006_profile(name);
      g.push_back({prof, std::nullopt, 0.97, std::nullopt});
      g.push_back({prof, core::scheme_by_name("abs"), 0.97, std::nullopt});
    }
    return g;
  }();
  const core::SweepRunner sequential(pooled_config(), 1);
  const core::SweepRunner pooled(pooled_config(), 4);
  const std::vector<core::RunResult> rs = sequential.run_results(jobs);
  const std::vector<core::RunResult> rp = pooled.run_results(jobs);
  ASSERT_EQ(rp.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    expect_bitwise_identical(rs[i], rp[i]);
  }
  EXPECT_EQ(core::sweep_checksum(rs), core::sweep_checksum(rp));
}

TEST(BatchLockstep, ThrowingMemberIsContainedAndReported) {
  std::vector<core::SweepJob> jobs;
  const auto bzip2 = workload::spec2006_profile("bzip2");
  jobs.push_back({bzip2, std::nullopt, 0.97, std::nullopt});
  core::RunnerConfig broken = pooled_config();
  broken.core.phys_regs = 1;  // Pipeline's constructor rejects this
  jobs.push_back({bzip2, std::nullopt, 0.97, broken});
  jobs.push_back({bzip2, core::scheme_by_name("abs"), 0.97, std::nullopt});

  // SweepRunner reports per job and rethrows the first failure only after
  // the grid drains; the same runner then completes the healthy grid.
  const core::SweepRunner sweeper(pooled_config(), 3);
  EXPECT_THROW({ (void)sweeper.run(jobs); }, std::invalid_argument);
  jobs[1].config.reset();
  const core::SweepReport healthy = sweeper.run(jobs);
  EXPECT_EQ(healthy.jobs.size(), jobs.size());
}

TEST(BatchEnv, VasimBatchValidation) {
  // set_batch is a pin for callers written against the batch engine: it
  // accepts 1, which changes nothing, and rejects every other width by name.
  const auto bzip2 = workload::spec2006_profile("bzip2");
  std::vector<core::SweepJob> jobs;
  jobs.push_back({bzip2, std::nullopt, 0.97, std::nullopt});
  jobs.push_back({bzip2, core::scheme_by_name("ffs"), 0.97, std::nullopt});
  const core::SweepRunner fresh(pooled_config(), 2);
  const u64 expected = core::sweep_checksum(fresh.run_results(jobs));

  core::SweepRunner pinned(pooled_config(), 2);
  EXPECT_NO_THROW(pinned.set_batch(1));
  for (const std::size_t width : {std::size_t{0}, std::size_t{2}, std::size_t{8}, std::size_t{64}}) {
    try {
      pinned.set_batch(width);
      ADD_FAILURE() << "set_batch(" << width << ") was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("batch"), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(core::sweep_checksum(pinned.run_results(jobs)), expected);
}

// ---- one simulation per distinct job -----------------------------------------
//
// Jobs with equal simulation keys (the warmup key plus the measured-window
// inputs) share one simulation: fault-free baselines at different supplies
// and exact duplicates.  Every job must still read exactly as its own
// standalone run.

std::optional<cpu::SchemeConfig> scheme(const char* name) { return core::scheme_by_name(name); }

TEST(SweepSimulations, SharedSimulationsMatchStandaloneRuns) {
  const auto bzip2 = workload::spec2006_profile("bzip2");
  const auto gobmk = workload::spec2006_profile("gobmk");
  const std::vector<core::SweepJob> jobs = {
      {bzip2, std::nullopt, 0.97, std::nullopt},  // leads the bzip2 baselines
      {bzip2, scheme("abs"), 0.97, std::nullopt},
      {bzip2, std::nullopt, 1.04, std::nullopt},
      {gobmk, scheme("razor"), 1.04, std::nullopt},
      {bzip2, std::nullopt, 1.10, std::nullopt},
      {bzip2, scheme("abs"), 0.97, std::nullopt},  // exact duplicate of job 1
  };
  const core::ExperimentRunner solo(small_config());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    const core::SweepReport report = core::SweepRunner(small_config(), workers).run(jobs);
    EXPECT_EQ(report.simulations, 3u);
    ASSERT_EQ(report.jobs.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      expect_bitwise_identical(solo.run(jobs[i].profile, jobs[i].scheme, jobs[i].vdd),
                               report.jobs[i].result);
    }
  }
}

TEST(SweepSimulations, EachJobKeepsItsOwnSupplyAndEnergy) {
  const auto bzip2 = workload::spec2006_profile("bzip2");
  core::RunnerConfig leaky = small_config();
  leaky.energy.leakage_per_cycle *= 2.0;  // reporting-only: same simulation
  const std::vector<core::SweepJob> jobs = {
      {bzip2, std::nullopt, 0.97, std::nullopt},
      {bzip2, std::nullopt, 1.10, std::nullopt},
      {bzip2, std::nullopt, 0.97, leaky},
  };
  const core::SweepReport report = core::SweepRunner(small_config(), 2).run(jobs);
  EXPECT_EQ(report.simulations, 1u);
  const core::RunResult& low = report.jobs[0].result;
  const core::RunResult& high = report.jobs[1].result;
  const core::RunResult& leak = report.jobs[2].result;
  EXPECT_EQ(low.vdd, 0.97);
  EXPECT_EQ(high.vdd, 1.10);
  EXPECT_EQ(low.stats.counters(), high.stats.counters());
  EXPECT_EQ(low.cycles, high.cycles);
  EXPECT_NE(low.energy.dynamic_nj, high.energy.dynamic_nj);
  EXPECT_NE(low.energy.edp, high.energy.edp);
  EXPECT_EQ(leak.energy.dynamic_nj, low.energy.dynamic_nj);
  EXPECT_EQ(leak.energy.leakage_nj, 2.0 * low.energy.leakage_nj);
  expect_bitwise_identical(core::ExperimentRunner(leaky).run(bzip2, std::nullopt, 0.97), leak);
}

TEST(SweepSimulations, SchemeJobsAtDifferentSuppliesNeverMerge) {
  const auto bzip2 = workload::spec2006_profile("bzip2");
  std::vector<core::SweepJob> jobs;
  for (const char* name : {"razor", "ep", "abs"}) {
    for (const double vdd : {0.97, 1.04, 1.10}) jobs.push_back({bzip2, scheme(name), vdd, {}});
  }
  const core::SweepReport report = core::SweepRunner(small_config(), 4).run(jobs);
  EXPECT_EQ(report.simulations, jobs.size());
  EXPECT_NE(report.jobs[0].result.stats.counters(), report.jobs[1].result.stats.counters());
}

TEST(SweepSimulations, MeasuredWindowInputsSeparateJobs) {
  const auto bzip2 = workload::spec2006_profile("bzip2");
  const core::RunnerConfig base = small_config();
  core::RunnerConfig longer = base;
  longer.instructions += 500;
  core::RunnerConfig narrower = base;
  narrower.core.commit_width -= 1;
  core::RunnerConfig sampled = base;
  sampled.timeline_interval = 1'000;
  const std::vector<core::SweepJob> jobs = {
      {bzip2, std::nullopt, 0.97, base},
      {bzip2, std::nullopt, 0.97, longer},
      {bzip2, std::nullopt, 0.97, narrower},
      {bzip2, std::nullopt, 0.97, sampled},
  };
  const std::string key = core::simulation_key_bytes(base, bzip2, std::nullopt, 0.97);
  EXPECT_EQ(key, core::simulation_key_bytes(base, bzip2, std::nullopt, 1.10));
  for (const auto& cfg : {longer, narrower, sampled}) {
    EXPECT_NE(key, core::simulation_key_bytes(cfg, bzip2, std::nullopt, 0.97));
  }
  const core::SweepReport report = core::SweepRunner(base, 2).run(jobs);
  EXPECT_EQ(report.simulations, jobs.size());
  EXPECT_EQ(report.jobs[1].result.committed, base.instructions + 500);
  EXPECT_NE(report.jobs[0].result.cycles, report.jobs[2].result.cycles);
  EXPECT_EQ(report.jobs[0].result.timeline, nullptr);
  EXPECT_NE(report.jobs[3].result.timeline, nullptr);
}

TEST(SweepSimulations, FailingLeaderFailsItsFollowersInSubmissionOrder) {
  const auto bzip2 = workload::spec2006_profile("bzip2");
  core::RunnerConfig few_regs = small_config();
  few_regs.core.phys_regs = 1;  // "phys_regs" error
  core::RunnerConfig odd_iq = small_config();
  odd_iq.core.iq_entries = 3;  // "iq_entries" error
  const auto first_error = [&](const std::vector<core::SweepJob>& jobs, std::size_t workers) {
    try {
      (void)core::SweepRunner(small_config(), workers).run(jobs);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    // A failing leader and its follower at another supply, then a second
    // failing simulation: the leader's error comes first.
    std::vector<core::SweepJob> jobs = {
        {bzip2, std::nullopt, 0.97, std::nullopt},
        {bzip2, std::nullopt, 0.97, few_regs},
        {bzip2, scheme("razor"), 0.97, odd_iq},
        {bzip2, std::nullopt, 1.10, few_regs},
    };
    EXPECT_NE(first_error(jobs, workers).find("phys_regs"), std::string::npos);
    // With the other failure submitted first, its error wins.
    std::swap(jobs[1], jobs[2]);
    EXPECT_NE(first_error(jobs, workers).find("iq_entries"), std::string::npos);
  }
}

TEST(ThreadPool, DefaultWorkerCountHonorsEnv) {
  // Not parallel-safe with other env-reading tests, but the suite runs
  // tests in one process sequentially.
  ASSERT_EQ(setenv("VASIM_JOBS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_worker_count(), 3u);
  ASSERT_EQ(unsetenv("VASIM_JOBS"), 0);
  EXPECT_GE(ThreadPool::default_worker_count(), 1u);
}

}  // namespace
}  // namespace vasim
