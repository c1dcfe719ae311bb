// Timeline telemetry and self-profiler behaviour.
//
// The load-bearing contract is exact reconciliation: windows partition the
// sampled run, so for every tracked counter the per-window deltas sum to the
// end-of-run aggregate -- counter for counter, across the scheme x benchmark
// x supply grid, and through warm starts.  The other half of the contract is
// invisibility: with no timeline or profiler attached, results are bitwise
// unchanged.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/runner.hpp"
#include "src/core/snapshot.hpp"
#include "src/core/sweep.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/timeline.hpp"
#include "src/obs/trace.hpp"
#include "src/timing/voltage.hpp"
#include "src/workload/profiles.hpp"
#include "tests/json_util.hpp"

namespace vasim {
namespace {

using testutil::JsonParser;
using testutil::count_substr;

core::RunnerConfig timeline_config(u64 interval) {
  core::RunnerConfig rc;
  rc.instructions = 3'000;
  rc.warmup = 1'000;
  rc.timeline_interval = interval;
  return rc;
}

std::vector<core::SweepJob> grid_jobs() {
  std::vector<core::SweepJob> jobs;
  for (const char* bench : {"bzip2", "sjeng"}) {
    const auto prof = workload::spec2006_profile(bench);
    for (const double vdd : {timing::SupplyPoints::kLowFault, timing::SupplyPoints::kHighFault}) {
      jobs.push_back({prof, std::nullopt, vdd, std::nullopt});
      for (const auto& scheme : core::comparative_schemes()) {
        jobs.push_back({prof, scheme, vdd, std::nullopt});
      }
    }
  }
  return jobs;
}

/// The reconciliation oracle: measured-window sums equal the measured
/// aggregates exactly (integer equality, not approximate), for the cycle and
/// commit columns, every tracked counter, and the derived series' numerators
/// and denominators.
void expect_reconciles(const core::RunResult& r, const std::string& cell) {
  ASSERT_NE(r.timeline, nullptr) << cell;
  const obs::Timeline& tl = *r.timeline;
  ASSERT_GT(tl.windows(), tl.measurement_start()) << cell;

  u64 cycles = 0;
  u64 committed = 0;
  std::vector<u64> sums(tl.num_counters(), 0);
  for (std::size_t w = tl.measurement_start(); w < tl.windows(); ++w) {
    cycles += tl.cycle_delta(w);
    committed += tl.committed_delta(w);
    for (std::size_t c = 0; c < tl.num_counters(); ++c) sums[c] += tl.delta(w, c);
  }
  EXPECT_EQ(committed, r.committed) << cell;
  EXPECT_EQ(cycles, r.cycles) << cell;
  for (std::size_t c = 0; c < tl.num_counters(); ++c) {
    EXPECT_EQ(sums[c], r.stats.count(tl.counter_name(c)))
        << cell << ": counter " << tl.counter_name(c) << " leaked across windows";
  }

  // Derived series 1 -- IPC: the windowed cycle/commit sums reproduce the
  // run's IPC bit-for-bit (same division of the same integers).
  EXPECT_EQ(static_cast<double>(committed) / static_cast<double>(cycles), r.ipc) << cell;
  // Derived series 2 -- violation rate: fault.actual window sums equal the
  // measured aggregate (checked above); the rate follows from the same
  // integers.
  // Derived series 3 -- predictor accuracy: handled/actual from window sums
  // equals the RunResult's.
  u64 actual = 0;
  u64 handled = 0;
  for (std::size_t w = tl.measurement_start(); w < tl.windows(); ++w) {
    actual += tl.delta_of(w, "fault.actual");
    handled += tl.delta_of(w, "fault.handled");
  }
  if (actual > 0) {
    EXPECT_EQ(static_cast<double>(handled) / static_cast<double>(actual), r.predictor_accuracy)
        << cell;
  }
  // Derived series 4 -- the 9-cause CPI stack: per-cause window sums equal
  // the run's slot accounting exactly.
  obs::CpiStack summed;
  for (std::size_t w = tl.measurement_start(); w < tl.windows(); ++w) {
    const obs::CpiStack ws = tl.cpi_window(w);
    for (int c = 0; c < obs::kNumCpiCauses; ++c) {
      summed.slots[static_cast<std::size_t>(c)] += ws.slots[static_cast<std::size_t>(c)];
    }
  }
  EXPECT_EQ(summed.slots, r.cpi.slots) << cell;

  // Geometry: cycle boundaries strictly increase, commit boundaries follow
  // the sampling grid (every window but the boundary cuts and the last spans
  // at least one commit).
  for (std::size_t w = 1; w < tl.windows(); ++w) {
    EXPECT_LT(tl.cycle_end(w - 1), tl.cycle_end(w)) << cell;
    EXPECT_LE(tl.committed_end(w - 1), tl.committed_end(w)) << cell;
  }
}

// ---- the tentpole invariant ------------------------------------------------

TEST(Timeline, WindowSumsReconcileExactlyAcrossSweepGrid) {
  const core::SweepRunner runner(timeline_config(250), 2);
  const std::vector<core::RunResult> results = runner.run_results(grid_jobs());
  for (const core::RunResult& r : results) {
    expect_reconciles(r, r.benchmark + "/" + r.scheme + "@" + std::to_string(r.vdd));
  }
}

TEST(Timeline, DisabledSamplingLeavesResultsBitwiseUnchanged) {
  core::RunnerConfig off = timeline_config(0);
  const core::SweepRunner plain(off, 2);
  const core::SweepRunner sampled(timeline_config(300), 2);
  const std::vector<core::SweepJob> jobs = grid_jobs();
  const u64 ck_off = core::sweep_checksum(plain.run_results(jobs));
  const u64 ck_on = core::sweep_checksum(sampled.run_results(jobs));
  EXPECT_EQ(ck_off, ck_on) << "sampling must observe, never perturb";
}

TEST(Timeline, WarmStartTimelineBeginsAtForkAndReconciles) {
  const auto prof = workload::spec2006_profile("bzip2");
  const auto scheme = core::scheme_by_name("abs");
  core::RunnerConfig rc = timeline_config(250);
  const core::ExperimentRunner capturer(rc);
  const core::RunSnapshot snap = capturer.capture(prof, scheme, 0.97, rc.warmup);

  const core::RunResult warm = capturer.run_from(snap);
  expect_reconciles(warm, "warm bzip2/abs");
  // Warm-started timelines are measured from the fork: no warmup windows.
  EXPECT_EQ(warm.timeline->measurement_start(), 0u);
  EXPECT_GT(warm.timeline->cycle_delta(0), 0u);

  // The sampler changes nothing about the simulation itself.
  core::RunnerConfig rc_off = rc;
  rc_off.timeline_interval = 0;
  const core::RunResult plain = core::ExperimentRunner(rc_off).run_from(snap);
  EXPECT_EQ(warm.committed, plain.committed);
  EXPECT_EQ(warm.cycles, plain.cycles);
  EXPECT_EQ(warm.stats.counters(), plain.stats.counters());
}

TEST(Timeline, ReuseWarmupSweepKeepsChecksumAndReconciles) {
  const std::vector<core::SweepJob> jobs = grid_jobs();
  core::SweepRunner plain(timeline_config(0), 2);
  plain.set_reuse_warmup(true);
  core::SweepRunner sampled(timeline_config(400), 2);
  sampled.set_reuse_warmup(true);
  const core::SweepReport a = plain.run(jobs);
  const core::SweepReport b = sampled.run(jobs);
  EXPECT_EQ(core::sweep_checksum(a), core::sweep_checksum(b));
  for (const core::SweepOutcome& j : b.jobs) {
    expect_reconciles(j.result, j.result.benchmark + "/" + j.result.scheme + " (reuse-warmup)");
  }
}

TEST(Timeline, ComposesWithLockstepBatchEngine) {
  // The lockstep batch engine is gone; a sampled sweep pinned to one job per
  // task with set_batch(1) must still match the unsampled one and reconcile.
  const std::vector<core::SweepJob> jobs = grid_jobs();
  core::SweepRunner pinned(timeline_config(350), 1);
  pinned.set_batch(1);
  const std::vector<core::RunResult> rp = pinned.run_results(jobs);
  const core::SweepRunner single(timeline_config(0), 1);
  EXPECT_EQ(core::sweep_checksum(rp), core::sweep_checksum(single.run_results(jobs)));
  for (const core::RunResult& r : rp) {
    expect_reconciles(r, r.benchmark + "/" + r.scheme + " (batch=1)");
  }
}

// ---- export formats --------------------------------------------------------

core::RunResult one_sampled_run() {
  const core::SweepRunner runner(timeline_config(250), 1);
  return runner
      .run_results({{workload::spec2006_profile("sjeng"), core::scheme_by_name("abs"), 0.97,
                     std::nullopt}})
      .front();
}

TEST(Timeline, JsonAndCsvExportsAreWellFormed) {
  const core::RunResult r = one_sampled_run();
  std::ostringstream js;
  r.timeline->write_json(js, /*include_counters=*/true);
  const std::string json = js.str();
  EXPECT_TRUE(JsonParser(json).parse()) << "timeline JSON must be valid";
  EXPECT_NE(json.find("\"kind\": \"vasim_timeline\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"violation_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  std::ostringstream js_slim;
  r.timeline->write_json(js_slim, /*include_counters=*/false);
  EXPECT_TRUE(JsonParser(js_slim.str()).parse());
  EXPECT_EQ(js_slim.str().find("\"counters\""), std::string::npos);

  std::ostringstream cs;
  r.timeline->write_csv(cs);
  const std::string csv = cs.str();
  EXPECT_EQ(count_substr(csv, "\n"), r.timeline->windows() + 1) << "header + one row per window";
  EXPECT_EQ(csv.rfind("window,cycle_end,committed_end,phase_change,ipc,", 0), 0u);
}

TEST(Timeline, JsonSeriesValuesRoundTripExactly) {
  // IPCs of 1/3 and 2/7 need all 17 significant digits to parse back to the
  // same double.
  obs::Timeline::Config cfg;
  cfg.interval = 100;
  obs::Timeline tl(cfg, nullptr);
  tl.sample(300, 100);
  tl.sample(1000, 300);
  tl.finalize(1000, 300);
  ASSERT_GE(tl.windows(), 2u);
  std::ostringstream js;
  tl.write_json(js, /*include_counters=*/false);
  const std::string json = js.str();
  const std::string key = "\"ipc\": [";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos);
  const char* p = json.c_str() + at + key.size();
  for (std::size_t w = 0; w < tl.windows(); ++w) {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    ASSERT_NE(end, p) << "window " << w;
    EXPECT_EQ(v, tl.ipc(w)) << "window " << w << " did not round-trip";
    p = end;
    if (*p == ',') p += 2;
  }
  EXPECT_EQ(*p, ']');
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  EXPECT_EQ(obs::json_number(-HUGE_VAL), "null");
}

TEST(Timeline, SweepChromeTraceGainsCounterTracks) {
  core::SweepRunner runner(timeline_config(250), 1);
  const core::SweepReport report = runner.run(
      {{workload::spec2006_profile("bzip2"), core::scheme_by_name("razor"), 0.97, std::nullopt}});
  std::ostringstream os;
  core::write_chrome_trace(os, report);
  const std::string json = os.str();
  EXPECT_TRUE(JsonParser(json).parse()) << "trace with counter tracks must stay valid JSON";
  EXPECT_GT(count_substr(json, "\"ph\": \"C\""), 0u) << "counter samples missing";
  EXPECT_EQ(count_substr(json, "\"ph\": \"X\""), 1u) << "existing span untouched";
  EXPECT_NE(json.find("\"name\": \"vasim timelines\""), std::string::npos);
}

// ---- sampler mechanics -----------------------------------------------------

TEST(Timeline, PhaseChangeMarkerFlagsIpcShifts) {
  // Registry-less timeline (IPC only): two steady windows then a 5x IPC drop.
  obs::Timeline::Config cfg;
  cfg.interval = 100;
  cfg.phase_delta = 0.25;
  obs::Timeline tl(cfg, nullptr);
  tl.sample(100, 100);   // ipc 1.0
  tl.sample(200, 200);   // ipc 1.0, steady
  tl.sample(300, 220);   // ipc 0.2, phase boundary
  tl.finalize(300, 220);
  ASSERT_EQ(tl.windows(), 3u);
  EXPECT_FALSE(tl.phase_change(0)) << "first window has no predecessor";
  EXPECT_FALSE(tl.phase_change(1));
  EXPECT_TRUE(tl.phase_change(2));
  EXPECT_DOUBLE_EQ(tl.ipc(2), 0.2);
}

TEST(Timeline, RebaselineIsOnlyLegalOnEmptyTimeline) {
  obs::Timeline::Config cfg;
  cfg.interval = 10;
  obs::Timeline tl(cfg, nullptr);
  tl.rebaseline(500, 400);  // legal: nothing recorded yet
  tl.sample(600, 450);
  EXPECT_EQ(tl.cycle_delta(0), 100u) << "accounting starts at the rebaseline point";
  EXPECT_EQ(tl.committed_delta(0), 50u);
  EXPECT_THROW(tl.rebaseline(700, 500), std::logic_error);
}

// ---- self-profiler ---------------------------------------------------------

TEST(Profiler, AttributesTimeWithoutPerturbingResults) {
  const auto prof = workload::spec2006_profile("bzip2");
  const auto scheme = core::scheme_by_name("abs");
  core::RunnerConfig rc = timeline_config(0);
  obs::ProfilerHub hub;
  rc.profiler_hub = &hub;
  const core::RunResult profiled = core::ExperimentRunner(rc).run(prof, *scheme, 0.97);

  core::RunnerConfig rc_off = rc;
  rc_off.profiler_hub = nullptr;
  const core::RunResult plain = core::ExperimentRunner(rc_off).run(prof, *scheme, 0.97);
  EXPECT_EQ(profiled.cycles, plain.cycles);
  EXPECT_EQ(profiled.committed, plain.committed);
  EXPECT_EQ(profiled.stats.counters(), plain.stats.counters());

  const obs::Profiler::Snapshot total = hub.total();
  EXPECT_GT(total.total_ns(), 0u);
  for (int p = 0; p < obs::kNumProfPhases; ++p) {
    EXPECT_GT(total.calls[static_cast<std::size_t>(p)], 0u)
        << "phase " << obs::to_string(static_cast<obs::ProfPhase>(p)) << " never timed";
  }
  // Sub-phases nest inside their parents, so parent time bounds them (the
  // clock is monotonic within one thread).
  EXPECT_GE(total.ns[static_cast<std::size_t>(obs::ProfPhase::kSelect)],
            total.ns[static_cast<std::size_t>(obs::ProfPhase::kFaultCheck)]);
  EXPECT_GE(total.ns[static_cast<std::size_t>(obs::ProfPhase::kExecute)],
            total.ns[static_cast<std::size_t>(obs::ProfPhase::kEventWheel)]);
}

TEST(Profiler, HubKeysMergesByThreadAndSumsTotals) {
  obs::ProfilerHub hub;
  const auto work = [&hub](u64 ns) {
    obs::Profiler p;
    p.add(obs::ProfPhase::kFetch, ns);
    p.add(obs::ProfPhase::kCommit, ns * 2);
    hub.merge(p.snapshot());
  };
  std::thread a(work, 100);
  std::thread b(work, 10);
  a.join();
  b.join();
  work(1);  // this thread: a third worker

  const std::vector<obs::ProfilerHub::WorkerReport> workers = hub.per_worker();
  ASSERT_EQ(workers.size(), 3u);
  const obs::Profiler::Snapshot total = hub.total();
  EXPECT_EQ(total.ns[static_cast<std::size_t>(obs::ProfPhase::kFetch)], 111u);
  EXPECT_EQ(total.ns[static_cast<std::size_t>(obs::ProfPhase::kCommit)], 222u);
  EXPECT_EQ(total.calls[static_cast<std::size_t>(obs::ProfPhase::kFetch)], 3u);
  u64 sum = 0;
  for (const obs::ProfilerHub::WorkerReport& w : workers) {
    sum += w.snap.ns[static_cast<std::size_t>(obs::ProfPhase::kFetch)];
  }
  EXPECT_EQ(sum, 111u);
}

TEST(Profiler, SweepMergesEveryWorkerIntoHub) {
  core::RunnerConfig rc = timeline_config(0);
  obs::ProfilerHub hub;
  rc.profiler_hub = &hub;
  core::SweepRunner runner(rc, 2);
  const core::SweepReport report = runner.run(grid_jobs());
  EXPECT_EQ(report.jobs.size(), grid_jobs().size());
  EXPECT_GT(hub.total().total_ns(), 0u);
  EXPECT_GE(hub.per_worker().size(), 1u);
  EXPECT_LE(hub.per_worker().size(), 2u);
}

}  // namespace
}  // namespace vasim
