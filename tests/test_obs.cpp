// Tests for the observability layer: the zero-lookup metrics registry, the
// CPI-stack cycle-accounting invariant, and the Chrome-trace JSON writers.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/sweep.hpp"
#include "src/cpu/pipeline.hpp"
#include "src/cpu/trace_sinks.hpp"
#include "src/obs/cpi.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/trace.hpp"
#include "src/timing/fault_model.hpp"
#include "src/workload/profiles.hpp"
#include "src/workload/trace_generator.hpp"
#include "tests/json_util.hpp"

namespace vasim {
namespace {

using testutil::JsonParser;
using testutil::count_substr;

// ---- Registry --------------------------------------------------------------

TEST(Registry, InterningIsIdempotent) {
  obs::Registry reg;
  obs::Counter a = reg.counter("ev.broadcast");
  obs::Counter b = reg.counter("ev.broadcast");
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(a.value(), 7u) << "same name must alias the same storage";
  EXPECT_EQ(reg.counter_value("ev.broadcast"), 7u);
  EXPECT_EQ(reg.num_counters(), 1u);
  EXPECT_EQ(reg.counter_value("never.registered"), 0u);
  const obs::Counter invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_TRUE(a.valid());
}

TEST(Registry, ExportSkipsZeroCountersAndAddsIntoExisting) {
  obs::Registry reg;
  obs::Counter hot = reg.counter("ev.commit");
  (void)reg.counter("ev.never_fired");
  hot.inc(42);

  StatSet s;
  s.inc("ev.commit", 8);  // pre-existing count must accumulate, not reset
  reg.export_to(s);
  EXPECT_EQ(s.count("ev.commit"), 50u);
  EXPECT_EQ(s.counters().count("ev.never_fired"), 0u)
      << "zero counters keep create-on-first-increment semantics";
}

TEST(Registry, GaugeAndHistogramExport) {
  obs::Registry reg;
  obs::Gauge g = reg.gauge("pred.accuracy");
  g.set(0.25);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);

  Histogram* h = reg.histogram("lat.issue", 0.0, 10.0, 10);
  EXPECT_EQ(h, reg.histogram("lat.issue", 99.0, 100.0, 3))
      << "existing name wins; geometry args ignored";
  (void)reg.histogram("lat.empty", 0.0, 1.0, 2);
  h->add(2.0);
  h->add(4.0);

  StatSet s;
  reg.export_to(s);
  EXPECT_DOUBLE_EQ(s.scalar("pred.accuracy"), 0.75);
  EXPECT_DOUBLE_EQ(s.scalar("lat.issue.mean"), 3.0);
  EXPECT_EQ(s.scalars().count("lat.empty.mean"), 0u) << "empty histograms not exported";
}

TEST(Registry, HistogramQuantileExportPinsKnownDistribution) {
  // 100 samples over [0, 10) in 10 buckets: 30 at 2.0, 50 at 5.0, 20 at 9.0.
  // Linear interpolation inside the holding bucket gives exact pinnable
  // quantiles: p50 -> rank 50 is 20/50 into [5,6) = 5.4; p95 -> rank 95 is
  // 15/20 into [9,10) = 9.75; p99 -> 19/20 into [9,10) = 9.95.
  obs::Registry reg;
  Histogram* h = reg.histogram("lat.replay", 0.0, 10.0, 10);
  for (int i = 0; i < 30; ++i) h->add(2.0);
  for (int i = 0; i < 50; ++i) h->add(5.0);
  for (int i = 0; i < 20; ++i) h->add(9.0);

  StatSet s;
  reg.export_to(s);
  EXPECT_DOUBLE_EQ(s.scalar("lat.replay.p50"), 5.4);
  EXPECT_DOUBLE_EQ(s.scalar("lat.replay.p95"), 9.75);
  EXPECT_DOUBLE_EQ(s.scalar("lat.replay.p99"), 9.95);
  EXPECT_DOUBLE_EQ(s.scalar("lat.replay.mean"), (30 * 2.0 + 50 * 5.0 + 20 * 9.0) / 100.0);
}

TEST(Registry, ResetZeroesButKeepsHandles) {
  obs::Registry reg;
  obs::Counter c = reg.counter("ev.x");
  obs::Gauge g = reg.gauge("sc.y");
  c.inc(5);
  g.set(1.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  c.inc();
  EXPECT_EQ(reg.counter_value("ev.x"), 1u) << "handle still targets live storage";
}

// ---- CPI stack -------------------------------------------------------------

TEST(CpiStack, CounterNamesRoundTripThroughStats) {
  obs::CpiStack stack;
  stack[obs::CpiCause::kBase] = 100;
  stack[obs::CpiCause::kMemory] = 40;
  stack[obs::CpiCause::kReplay] = 7;
  StatSet s;
  for (int c = 0; c < obs::kNumCpiCauses; ++c) {
    const auto cause = static_cast<obs::CpiCause>(c);
    if (stack[cause] != 0) s.inc(obs::cpi_counter_name(cause), stack[cause]);
  }
  const obs::CpiStack back = obs::CpiStack::from_stats(s);
  EXPECT_EQ(back.slots, stack.slots);
  EXPECT_EQ(back.total(), 147u);
  EXPECT_EQ(back.lost(), 47u);
  EXPECT_DOUBLE_EQ(back.cpi_of(obs::CpiCause::kMemory, 4, 10), 1.0);
}

// The tentpole invariant: every commit slot of every cycle is attributed to
// exactly one cause, for every scheme x benchmark x supply cell.
TEST(CpiStack, InvariantHoldsAcrossSweepGrid) {
  core::RunnerConfig rc;
  rc.instructions = 3'000;
  rc.warmup = 1'000;
  const int width = rc.core.commit_width;

  std::vector<core::SweepJob> jobs;
  for (const char* bench : {"bzip2", "gobmk"}) {
    const auto prof = workload::spec2006_profile(bench);
    for (const double vdd : {timing::SupplyPoints::kLowFault, timing::SupplyPoints::kHighFault}) {
      jobs.push_back({prof, std::nullopt, vdd, std::nullopt});
      for (const auto& scheme : core::comparative_schemes()) {
        jobs.push_back({prof, scheme, vdd, std::nullopt});
      }
    }
  }
  const core::SweepRunner runner(rc, 2);
  const std::vector<core::RunResult> results = runner.run_results(jobs);
  ASSERT_EQ(results.size(), jobs.size());

  for (const core::RunResult& r : results) {
    const std::string cell = r.benchmark + "/" + r.scheme + "@" + std::to_string(r.vdd);
    EXPECT_EQ(r.cpi.total(), r.cycles * static_cast<u64>(width))
        << "slot accounting leaked in " << cell;
    EXPECT_GE(r.cpi[obs::CpiCause::kBase], r.committed)
        << "every commit is a base slot in " << cell;
    EXPECT_EQ(obs::CpiStack::from_stats(r.stats).slots, r.cpi.slots)
        << "cpi.* counters out of sync with RunResult.cpi in " << cell;
    // Scheme signatures at the high-fault supply: Razor pays in replays,
    // Error Padding in global stall cycles.
    if (r.vdd == timing::SupplyPoints::kHighFault) {
      if (r.scheme == "razor") {
        EXPECT_GT(r.cpi[obs::CpiCause::kReplay], 0u) << cell;
      }
      if (r.scheme == "ep") {
        EXPECT_GT(r.cpi[obs::CpiCause::kEpStall], 0u) << cell;
      }
    }
    if (r.scheme == "fault-free") {
      EXPECT_EQ(r.cpi[obs::CpiCause::kReplay], 0u) << cell;
      EXPECT_EQ(r.cpi[obs::CpiCause::kEpStall], 0u) << cell;
      EXPECT_EQ(r.cpi[obs::CpiCause::kSquashRefetch], 0u) << cell;
    }
  }
}

// ---- Chrome trace JSON -----------------------------------------------------

TEST(ChromeTrace, SweepTraceIsValidJsonWithOneSpanPerJob) {
  core::RunnerConfig rc;
  rc.instructions = 2'000;
  rc.warmup = 500;
  const auto prof = workload::spec2006_profile("bzip2");
  std::vector<core::SweepJob> jobs;
  jobs.push_back({prof, std::nullopt, 0.97, std::nullopt});
  for (const auto& scheme : core::comparative_schemes()) {
    jobs.push_back({prof, scheme, 0.97, std::nullopt});
  }
  const core::SweepRunner runner(rc, 2);
  const core::SweepReport report = runner.run(jobs);

  std::ostringstream os;
  core::write_chrome_trace(os, report);
  const std::string json = os.str();
  EXPECT_TRUE(JsonParser(json).parse()) << "sweep trace must be valid JSON";
  EXPECT_EQ(count_substr(json, "\"ph\": \"X\""), jobs.size()) << "one complete span per job";
  EXPECT_NE(json.find("\"name\": \"vasim sweep\""), std::string::npos);

  // Every span's tid is a pool worker id.
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    const std::size_t at = line.find("\"tid\": ");
    ASSERT_NE(at, std::string::npos) << line;
    const std::size_t tid = std::strtoull(line.c_str() + at + 7, nullptr, 10);
    EXPECT_LT(tid, report.workers) << line;
  }
}

TEST(ChromeTrace, TraceObserverEmitsValidJsonAndOneCommitPerInstruction) {
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  cpu::CoreConfig cfg;
  cpu::Pipeline p(cfg, cpu::scheme_fault_free(), &g, nullptr, nullptr);
  std::ostringstream os;
  obs::ChromeTraceWriter writer(&os);
  cpu::TraceObserver observer(&writer, 100'000);
  p.add_check_hooks(&observer);
  const cpu::PipelineResult r = p.run(2'000);
  writer.finish();

  const std::string json = os.str();
  EXPECT_TRUE(JsonParser(json).parse()) << "instruction trace must be valid JSON";
  EXPECT_EQ(observer.instructions_traced(), r.committed);
  EXPECT_EQ(count_substr(json, "\"name\": \"commit\""), r.committed);
  // Four phase spans per committed instruction.
  EXPECT_EQ(count_substr(json, "\"ph\": \"X\""), 4 * r.committed);
  EXPECT_GT(writer.events_written(), 5 * r.committed);
}

TEST(ChromeTrace, JsonQuoteEscapes) {
  EXPECT_EQ(obs::json_quote("plain"), "\"plain\"");
  EXPECT_EQ(obs::json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_TRUE(JsonParser(obs::json_quote("tab\there\nnl")).parse());
}

TEST(ChromeTrace, ConcurrentSpansAndCounterTracksStayValidJson) {
  // N jobs' worth of spans plus counter-track samples racing into one
  // writer: the per-event mutex must keep the stream valid JSON with every
  // event intact.  Run under the TSan preset this also proves data-race
  // freedom of counter_event against complete_event.
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 50;
  std::ostringstream os;
  obs::ChromeTraceWriter writer(&os);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&writer, t] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        const double ts = static_cast<double>(i) * 10.0;
        writer.complete_event("job", "sweep", 0, static_cast<u64>(t), ts, 5.0,
                              {{"worker", std::to_string(t)}});
        writer.counter_event("ipc", "timeline", 1, static_cast<u64>(t), ts,
                             {{"ipc", "1.5"}, {"cpi_base", "0.66"}});
      }
    });
  }
  for (std::thread& th : pool) th.join();
  writer.finish();

  const std::string json = os.str();
  EXPECT_TRUE(JsonParser(json).parse()) << "concurrent trace must stay valid JSON";
  EXPECT_EQ(count_substr(json, "\"ph\": \"X\""), kThreads * kEventsPerThread);
  EXPECT_EQ(count_substr(json, "\"ph\": \"C\""), kThreads * kEventsPerThread);
  EXPECT_EQ(writer.events_written(), 2u * kThreads * kEventsPerThread);
}

}  // namespace
}  // namespace vasim
