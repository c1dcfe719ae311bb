// Tests for the pipeline event stream's lifecycle events, its sink list
// and the Kanata and Perfetto trace writers.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/runner.hpp"
#include "src/cpu/pipeline.hpp"
#include "src/cpu/trace_sinks.hpp"
#include "src/isa/assembler.hpp"
#include "src/isa/executor.hpp"
#include "src/obs/trace.hpp"
#include "src/timing/fault_model.hpp"
#include "src/workload/profiles.hpp"
#include "src/workload/trace_generator.hpp"
#include "tests/run_compare.hpp"

namespace vasim::cpu {
namespace {

/// The interface the trace writers implement and ExperimentRunner::run
/// accepts.
using TraceSink = SchedHooks;

/// FNV-1a over a byte string.
u64 fnv1a(const std::string& bytes) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Counts lifecycle events and checks per-instruction ordering.
struct CountingObserver final : SchedHooks {
  u64 fetches = 0, dispatches = 0, issues = 0, completes = 0, commits = 0, squashed = 0;
  std::vector<u8> state;  // per-seq lifecycle stage

  void bump(SeqNum seq, u8 expect, u8 next) {
    if (state.size() <= seq) state.resize(static_cast<std::size_t>(seq) + 1, 0);
    EXPECT_EQ(state[static_cast<std::size_t>(seq)], expect) << "seq " << seq;
    state[static_cast<std::size_t>(seq)] = next;
  }
  void on_fetched(Cycle, SeqNum seq, const isa::DynInst&) override {
    ++fetches;
    if (state.size() <= seq) state.resize(static_cast<std::size_t>(seq) + 1, 0);
    state[static_cast<std::size_t>(seq)] = 1;  // refetch after squash resets
  }
  void on_dispatched(Cycle, const InstState& is) override {
    ++dispatches;
    bump(is.di.seq, 1, 2);
  }
  void on_issued(Cycle, const InstState& is, Cycle, Cycle) override {
    ++issues;
    bump(is.di.seq, 2, 3);
  }
  void on_completed(Cycle, const InstState& is) override {
    ++completes;
    bump(is.di.seq, 3, 4);
  }
  void on_committed(Cycle, const InstState& is) override {
    ++commits;
    bump(is.di.seq, 4, 5);
  }
  void on_squashed(Cycle, SeqNum first, SeqNum last) override { squashed += last - first + 1; }
};

TEST(Observer, LifecycleOrderingFaultFree) {
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_fault_free(), &g, nullptr, nullptr);
  CountingObserver obs;
  p.set_check_hooks(&obs);
  const PipelineResult r = p.run(5000);
  EXPECT_EQ(r.committed, 5000u);
  EXPECT_EQ(obs.commits, 5000u);
  EXPECT_GE(obs.fetches, obs.dispatches);
  EXPECT_GE(obs.dispatches, obs.issues);
  EXPECT_GE(obs.issues, obs.completes);
  EXPECT_GE(obs.completes, obs.commits);
}

// An observer handed to ExperimentRunner::run only watches: the run it
// rides is bitwise the unobserved run, under each wiring `vasim run
// --kanata/--trace` can reach.
TEST(Observer, RunnerObserversLeaveResultsBitIdentical) {
  struct Case {
    const char* name;
    std::optional<SchemeConfig> scheme;
    core::PredictorKind predictor;
    adapt::DvfsPolicy dvfs;
  };
  const Case cases[] = {
      {"fault-free", std::nullopt, core::PredictorKind::kTep, adapt::DvfsPolicy::kStatic},
      {"abs/mre", scheme_abs(), core::PredictorKind::kMre, adapt::DvfsPolicy::kStatic},
      {"abs/reactive", scheme_abs(), core::PredictorKind::kTep, adapt::DvfsPolicy::kReactive},
  };
  const auto prof = workload::spec2006_profile("bzip2");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    core::RunnerConfig rc;
    rc.instructions = 3'000;
    rc.warmup = 500;
    rc.predictor = c.predictor;
    rc.dvfs.policy = c.dvfs;
    rc.dvfs.epoch = 500;  // several controller steps within the run
    const core::ExperimentRunner runner(rc);
    CountingObserver obs;
    SchedHooks* const sinks[] = {&obs};
    const core::RunResult watched = runner.run(prof, c.scheme, 0.97, sinks);
    EXPECT_EQ(obs.commits, rc.warmup + rc.instructions);
    expect_bitwise_identical(watched, runner.run(prof, c.scheme, 0.97));
  }
}

// The Kanata and Chrome-trace bytes of one short run with Razor replays,
// branch squashes and wrong-path fetches, pinned by hash: a change to how
// the pipeline reports its events must leave both files byte-identical.
TEST(TraceBytes, KanataAndChromeTraceArePinned) {
  core::RunnerConfig rc;
  rc.instructions = 4'000;
  rc.warmup = 1'000;
  rc.core.model_wrong_path = true;
  std::ostringstream kanata_out, chrome_out;
  KanataTraceWriter kanata(&kanata_out, 20'000);
  obs::ChromeTraceWriter chrome(&chrome_out);
  TraceObserver trace(&chrome, 20'000);
  TraceSink* const sinks[] = {&kanata, &trace};
  const core::RunResult r = core::ExperimentRunner(rc).run(workload::spec2006_profile("bzip2"),
                                                           scheme_abs(), 0.97, sinks);
  chrome.finish();
  ASSERT_GT(r.stats.count("fault.replays"), 0u);
  ASSERT_GT(r.stats.count("ev.squash"), 0u);
  ASSERT_GT(r.stats.count("ev.wrongpath_fetch"), 0u);
  EXPECT_EQ(fnv1a(kanata_out.str()), 0xf7d003ec34b86874ULL);
  EXPECT_EQ(fnv1a(chrome_out.str()), 0x98e9cc78a346b173ULL);
}

TEST(Observer, SquashEventsUnderReplay) {
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  timing::PathModelConfig pcfg{prof.seed, 0.12, 0.04};
  const timing::FaultModel fm(pcfg, 0.97);
  SchemeConfig razor = scheme_razor();
  razor.recovery = RecoveryModel::kSquashRefetch;
  CoreConfig cfg;
  Pipeline p(cfg, razor, &g, &fm, nullptr);
  CountingObserver obs;
  p.set_check_hooks(&obs);
  const PipelineResult r = p.run(5000);
  EXPECT_EQ(r.committed, 5000u);
  EXPECT_GT(obs.squashed, 0u);
  EXPECT_EQ(obs.squashed, r.stats.count("ev.squash"));
  EXPECT_EQ(obs.commits, 5000u);
}

TEST(Kanata, WellFormedTrace) {
  const isa::Program prog = isa::assemble(R"(
      addi r1, r0, 0
      addi r2, r0, 1
      addi r3, r0, 40
    loop:
      add  r1, r1, r2
      addi r2, r2, 1
      blt  r2, r3, loop
      halt
  )");
  isa::FunctionalCore src(&prog);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_fault_free(), &src, nullptr, nullptr);
  std::ostringstream trace;
  KanataTraceWriter writer(&trace, 1000);
  p.set_check_hooks(&writer);
  p.run(1'000'000);

  const std::string t = trace.str();
  EXPECT_EQ(t.rfind("Kanata\t0004\n", 0), 0u) << "header first";
  EXPECT_NE(t.find("\nS\t0\t0\tF\n"), std::string::npos) << "fetch stage for seq 0";
  EXPECT_NE(t.find("\nS\t0\t0\tIs\n"), std::string::npos);
  EXPECT_NE(t.find("\nR\t0\t0\t0\n"), std::string::npos) << "seq 0 retires first";
  EXPECT_NE(t.find(": alu"), std::string::npos) << "disassembly labels";
  EXPECT_GT(writer.instructions_logged(), 100u);
  // Every logged instruction eventually retires (no flushes here).
  std::size_t retires = 0;
  for (std::size_t pos = t.find("\nR\t"); pos != std::string::npos;
       pos = t.find("\nR\t", pos + 1)) {
    ++retires;
  }
  EXPECT_EQ(retires, writer.instructions_logged());
}

TEST(Kanata, SquashEmitsFlushRetirementsAndRefetchRestartsRows) {
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  timing::PathModelConfig pcfg{prof.seed, 0.12, 0.04};
  const timing::FaultModel fm(pcfg, 0.97);
  SchemeConfig razor = scheme_razor();
  razor.recovery = RecoveryModel::kSquashRefetch;
  CoreConfig cfg;
  Pipeline p(cfg, razor, &g, &fm, nullptr);
  std::ostringstream trace;
  KanataTraceWriter writer(&trace, 100'000);
  p.set_check_hooks(&writer);
  const PipelineResult r = p.run(5000);
  ASSERT_GT(r.stats.count("ev.squash"), 0u) << "test needs at least one squash";

  // Split the log into lines and tally per-record-type counts.
  const std::string t = trace.str();
  u64 flushes = 0, retires = 0;
  std::map<std::string, int> fetches_of;  // I-line count per seq id
  std::istringstream lines(t);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("R\t", 0) == 0) {
      // R <id> <retire-id> <type>; type 1 = flushed by a squash.
      (line.size() >= 2 && line.compare(line.size() - 2, 2, "\t1") == 0) ? ++flushes : ++retires;
    } else if (line.rfind("I\t", 0) == 0) {
      ++fetches_of[line.substr(2, line.find('\t', 2) - 2)];
    }
  }
  EXPECT_EQ(flushes, r.stats.count("ev.squash"))
      << "every squashed instruction gets a type-1 retirement";
  EXPECT_EQ(retires, r.committed) << "every committed instruction gets a normal retirement";
  // The refetch after a squash re-assigns the same SeqNums, so at least one
  // id must have been fetched (I-line) more than once.
  int refetched = 0;
  for (const auto& [id, n] : fetches_of) refetched += n > 1 ? 1 : 0;
  EXPECT_GT(refetched, 0) << "squash-refetch re-fetches the flushed ids";
}

TEST(Kanata, MicroReplayHasNoFlushRecords) {
  // Razor's default recovery is the squashless micro-replay: faults replay
  // in place, so the Kanata log must contain normal retirements only.
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  timing::PathModelConfig pcfg{prof.seed, 0.12, 0.04};
  const timing::FaultModel fm(pcfg, 0.97);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_razor(), &g, &fm, nullptr);
  std::ostringstream trace;
  KanataTraceWriter writer(&trace, 100'000);
  p.set_check_hooks(&writer);
  const PipelineResult r = p.run(3000);
  ASSERT_GT(r.stats.count("fault.replays"), 0u) << "test needs at least one replay";
  EXPECT_EQ(trace.str().find("\t0\t1\n"), std::string::npos) << "no flushed retirements";
}

TEST(SinkList, FansEventsOutToEverySink) {
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_fault_free(), &g, nullptr, nullptr);
  CountingObserver a, b;
  p.add_check_hooks(&a);
  p.add_check_hooks(&b);
  const PipelineResult r = p.run(2000);
  EXPECT_EQ(a.commits, r.committed);
  EXPECT_EQ(b.commits, r.committed);
  EXPECT_EQ(a.fetches, b.fetches);
  EXPECT_EQ(a.issues, b.issues);
}

TEST(SinkList, SetCheckHooksReplacesInsteadOfAccumulating) {
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_fault_free(), &g, nullptr, nullptr);
  CountingObserver old_obs, new_obs;
  p.add_check_hooks(&old_obs);
  p.set_check_hooks(&new_obs);
  const PipelineResult r = p.run(1000);
  EXPECT_EQ(old_obs.commits, 0u) << "replaced observer must see nothing";
  EXPECT_EQ(new_obs.commits, r.committed);
}

TEST(Kanata, CapsLogSize) {
  const auto prof = workload::spec2006_profile("bzip2");
  workload::TraceGenerator g(prof);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_fault_free(), &g, nullptr, nullptr);
  std::ostringstream trace;
  KanataTraceWriter writer(&trace, 50);
  p.set_check_hooks(&writer);
  p.run(5000);
  EXPECT_EQ(writer.instructions_logged(), 50u);
}

}  // namespace
}  // namespace vasim::cpu
