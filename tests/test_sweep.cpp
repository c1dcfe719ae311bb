// SweepRunner / ThreadPool behaviour: determinism across worker counts,
// submission-order preservation, exception containment, and the JSON sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/common/thread_pool.hpp"
#include "src/core/sweep.hpp"
#include "src/workload/profiles.hpp"

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

void expect_identical(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.vdd, b.vdd);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.fault_rate_pct, b.fault_rate_pct);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.predictor_accuracy, b.predictor_accuracy);
  EXPECT_EQ(a.energy.dynamic_nj, b.energy.dynamic_nj);
  EXPECT_EQ(a.energy.leakage_nj, b.energy.leakage_nj);
  EXPECT_EQ(a.energy.edp, b.energy.edp);
  EXPECT_EQ(a.stats.counters(), b.stats.counters());
}

TEST(SweepRunner, ResultsIdenticalAcrossWorkerCounts) {
  const std::vector<core::SweepJob> jobs = small_grid();
  const core::SweepRunner one(small_config(), 1);
  const core::SweepRunner four(small_config(), 4);
  const std::vector<core::RunResult> r1 = one.run_results(jobs);
  const std::vector<core::RunResult> r4 = four.run_results(jobs);
  ASSERT_EQ(r1.size(), jobs.size());
  ASSERT_EQ(r4.size(), jobs.size());
  for (std::size_t i = 0; i < r1.size(); ++i) expect_identical(r1[i], r4[i]);
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
  EXPECT_NE(json.find("\"schema_version\": 5"), std::string::npos);
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

TEST(SweepCancel, PreFiredTokenCancelsEveryJob) {
  const std::vector<core::SweepJob> jobs = small_grid();
  core::CancelToken token;
  token.cancel();  // fired before run(): nothing may start
  core::SweepRunner runner(small_config(), 2);
  runner.set_cancel_token(&token);
  const core::SweepReport report = runner.run(jobs);
  ASSERT_EQ(report.jobs.size(), jobs.size());
  EXPECT_EQ(report.cancelled_jobs, jobs.size());
  for (const core::SweepOutcome& j : report.jobs) {
    EXPECT_TRUE(j.cancelled);
    EXPECT_EQ(j.result.committed, 0u);  // never simulated
  }
}

TEST(SweepCancel, UnfiredTokenChangesNothing) {
  const std::vector<core::SweepJob> jobs = small_grid();
  const core::SweepRunner plain(small_config(), 2);
  const u64 expected = core::sweep_checksum(plain.run_results(jobs));
  core::CancelToken token;  // present but never fired
  core::SweepRunner runner(small_config(), 2);
  runner.set_cancel_token(&token);
  const core::SweepReport report = runner.run(jobs);
  EXPECT_EQ(report.cancelled_jobs, 0u);
  std::vector<core::RunResult> results;
  results.reserve(report.jobs.size());
  for (const core::SweepOutcome& j : report.jobs) results.push_back(j.result);
  EXPECT_EQ(core::sweep_checksum(results), expected);
}

TEST(SweepCancel, MidFlightCancelKeepsSurvivorsBitwiseIdentical) {
  // The cooperative contract: unstarted jobs report cancelled, jobs already
  // running finish normally, and every survivor is bitwise identical to the
  // uncancelled sweep's result at the same index.
  const std::vector<core::SweepJob> jobs = small_grid();
  const core::SweepRunner ref(small_config(), 1);
  const std::vector<core::RunResult> expect = ref.run_results(jobs);

  core::CancelToken token;
  core::SweepRunner runner(small_config(), 2);
  runner.set_cancel_token(&token);
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.cancel();
  });
  const core::SweepReport report = runner.run(jobs);
  canceller.join();
  ASSERT_EQ(report.jobs.size(), jobs.size());
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    if (report.jobs[i].cancelled) {
      ++cancelled;
    } else {
      EXPECT_EQ(core::result_checksum(report.jobs[i].result), core::result_checksum(expect[i]))
          << "survivor " << i << " diverged from the uncancelled sweep";
    }
  }
  EXPECT_EQ(report.cancelled_jobs, cancelled);
}

TEST(SweepCancel, BatchModeCancelsWholeUnstartedChunks) {
  // A runner pinned to one job per task with set_batch(1), the call batch
  // mode used to take, honours a pre-fired token like any other runner.
  const std::vector<core::SweepJob> jobs = small_grid();
  core::CancelToken token;
  token.cancel();
  core::SweepRunner runner(small_config(), 2);
  runner.set_batch(1);
  runner.set_cancel_token(&token);
  const core::SweepReport report = runner.run(jobs);
  ASSERT_EQ(report.jobs.size(), jobs.size());
  EXPECT_EQ(report.cancelled_jobs, jobs.size());
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
