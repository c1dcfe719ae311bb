// Semantics-checker suite: proves the runtime invariant observer actually
// observes.
//
// Three layers:
//   1. Directed mutation tests drive the checker's hook surface with
//      synthetic event streams -- one conforming stream per mechanism (must
//      be clean) and one deliberately broken stream per paper invariant
//      (the checker must fire).  A checker that never fires is
//      indistinguishable from no checker; these tests pin every rule.
//   2. Metamorphic differential tests: with a null fault environment every
//      scheme must degenerate to bit-identical execution; with faults, the
//      stall-only schemes (Razor micro-stall, Error Padding) may never beat
//      the fault-free machine, and every scheme commits exactly the
//      architectural instruction stream.
//   3. Unit tests for the bisection shrinker behind tools/check_probe.
//
// Reproduce any parameterized failure with VASIM_FUZZ_SEEDS=<seed> (see
// tests/fuzz_util.hpp and docs/testing.md).
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>

#include "src/check/semantics.hpp"
#include "src/check/shrink.hpp"
#include "src/core/runner.hpp"
#include "src/core/tep.hpp"
#include "src/cpu/pipeline.hpp"
#include "src/isa/assembler.hpp"
#include "src/isa/executor.hpp"
#include "src/timing/fault_model.hpp"
#include "src/workload/profiles.hpp"
#include "src/workload/trace_generator.hpp"
#include "tests/fuzz_util.hpp"

namespace vasim {
namespace {

using check::SemanticsChecker;
using cpu::InstState;
using cpu::SelectOutcome;

bool fired(const SemanticsChecker& chk, const std::string& invariant) {
  for (const check::Violation& v : chk.violations()) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

u64 bits_of(double v) {
  u64 b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// ---- synthetic event-stream driver ----------------------------------------
//
// Emits hook sequences in exactly the order pipeline.cpp does (lsq search,
// then FU allocation, then issue, then the kIssued select visit), so a
// conforming stream here is indistinguishable from a real run's.
struct Stream {
  cpu::CoreConfig cfg;
  cpu::SchemeConfig scheme;
  SemanticsChecker chk;
  Cycle now = 0;

  explicit Stream(cpu::SchemeConfig s, cpu::CoreConfig c = {})
      : cfg(c), scheme(std::move(s)), chk(cfg, scheme) {}

  /// Advances to the next scheduling cycle.
  void begin_cycle(int frozen = 0, bool mem_blocked = false) {
    ++now;
    chk.on_cycle_start(now, frozen, mem_blocked);
  }

  /// One global stall cycle (the wheel does not pop; no cycle start).
  void stall(bool ep_padding = false) {
    ++now;
    chk.on_global_stall(now, ep_padding);
  }

  InstState make(SeqNum seq, isa::OpClass op = isa::OpClass::kIntAlu, int dst = kNoReg,
                 int s1 = kNoReg, int s2 = kNoReg, Addr addr = 0) {
    InstState is;
    is.di.seq = seq;
    is.di.op = op;
    is.di.pc = 0x4000 + seq * 8;
    is.di.mem_addr = addr;
    is.age = seq;
    is.phys_dst = dst;
    is.phys_src1 = s1;
    is.phys_src2 = s2;
    return is;
  }

  InstState dispatch(SeqNum seq, isa::OpClass op = isa::OpClass::kIntAlu, int dst = kNoReg,
                     int s1 = kNoReg, int s2 = kNoReg, Addr addr = 0) {
    InstState is = make(seq, op, dst, s1, s2, addr);
    chk.on_dispatched(now, is);
    return is;
  }

  /// First unit of the kind serving `op` (FuPool's kind-grouped layout).
  int unit_for(isa::OpClass op) const {
    switch (op) {
      case isa::OpClass::kIntMul:
      case isa::OpClass::kIntDiv: return cfg.simple_alus;
      case isa::OpClass::kBranch: return cfg.simple_alus + cfg.complex_alus;
      case isa::OpClass::kLoad: return cfg.simple_alus + cfg.complex_alus + cfg.branch_units;
      case isa::OpClass::kStore:
        return cfg.simple_alus + cfg.complex_alus + cfg.branch_units + cfg.load_ports;
      default: return 0;
    }
  }

  /// Conforming issue: the exact hook burst issue_one() emits, with the
  /// occupancy the paper's FUSR rule demands.
  void issue(const InstState& is, Cycle exec_lat = 1, Cycle lat_delta = 0) {
    const bool fu_extra = scheme.vte && is.pred_fault &&
                          is.pred_stage != timing::OooStage::kWriteback;
    const Cycle occupy =
        (is.di.op == isa::OpClass::kIntDiv ? exec_lat + lat_delta : 1) + (fu_extra ? 1 : 0);
    issue_with(is, exec_lat, lat_delta, unit_for(is.di.op), now + occupy);
  }

  void issue_with(const InstState& is, Cycle exec_lat, Cycle lat_delta, int unit,
                  Cycle next_free) {
    if (isa::is_mem(is.di.op)) chk.on_lsq_search(now, is);
    chk.on_fu_allocated(now, is, unit, next_free);
    chk.on_issued(now, is, exec_lat, lat_delta);
    chk.on_select_visit(now, is, SelectOutcome::kIssued);
  }
};

// ---- conforming streams (the checker must stay silent) --------------------

TEST(SemanticsStream, ConformingScalarLifecycleIsClean) {
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  const InstState i0 = s.dispatch(0, isa::OpClass::kIntAlu, /*dst=*/5);
  s.begin_cycle();
  s.chk.on_select_pass(s.now, 1);
  s.issue(i0);  // broadcast due at issue + 1
  s.begin_cycle();
  s.chk.on_tag_broadcast(s.now, i0, 0);
  s.begin_cycle();
  s.chk.on_completed(s.now, i0);
  s.begin_cycle();
  s.chk.on_committed(s.now, i0);
  EXPECT_TRUE(s.chk.ok()) << s.chk.report();
  EXPECT_GT(s.chk.checks(), 0u);
}

TEST(SemanticsStream, ConformingVtePadFreezeAndStallShiftIsClean) {
  // Predicted-faulty writeback-stage instruction under VTE: one pad cycle,
  // one frozen slot next cycle, and a global stall that shifts every due
  // time by one.
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  InstState i0 = s.make(0, isa::OpClass::kIntAlu, /*dst=*/7);
  i0.pred_fault = true;
  i0.pred_stage = timing::OooStage::kWriteback;
  s.chk.on_dispatched(s.now, i0);
  s.begin_cycle();
  s.issue(i0, /*exec_lat=*/1, /*lat_delta=*/1);  // broadcast due two cycles out
  s.begin_cycle(/*frozen=*/1);                   // the paper's frozen issue slot
  s.stall();                                     // unrelated global stall
  s.begin_cycle();                               // stored time catches the due cycle
  s.chk.on_tag_broadcast(s.now, i0, 0);
  s.begin_cycle();
  s.chk.on_completed(s.now, i0);
  s.begin_cycle();
  s.chk.on_committed(s.now, i0);
  EXPECT_TRUE(s.chk.ok()) << s.chk.report();
}

// ---- directed mutations (the checker must fire) ---------------------------

TEST(SemanticsStream, ReportCountsObservedCommits) {
  // A late broadcast fires; the report then names the cycles and commits
  // the checker saw, so a failure that observed no commits is obvious.
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  const InstState i0 = s.dispatch(0, isa::OpClass::kIntAlu, 5);
  s.begin_cycle();
  s.issue(i0);
  s.begin_cycle();
  s.begin_cycle();
  s.chk.on_tag_broadcast(s.now, i0, 0);
  s.begin_cycle();
  s.chk.on_completed(s.now, i0);
  s.begin_cycle();
  s.chk.on_committed(s.now, i0);
  EXPECT_EQ(s.chk.commits_observed(), 1u);
  EXPECT_EQ(s.chk.cycles_observed(), 6u);
  ASSERT_FALSE(s.chk.ok());
  EXPECT_NE(s.chk.report().find("6 cycles, 1 commits"), std::string::npos) << s.chk.report();
}

TEST(SemanticsStream, MutatedBroadcastTimeFires) {
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  const InstState i0 = s.dispatch(0, isa::OpClass::kIntAlu, 5);
  s.begin_cycle();
  s.issue(i0);
  s.begin_cycle();
  s.begin_cycle();  // one cycle LATE: violates issue + exec_lat + pad
  s.chk.on_tag_broadcast(s.now, i0, 0);
  EXPECT_TRUE(fired(s.chk, "delayed-broadcast")) << s.chk.report();
}

TEST(SemanticsStream, MutatedVtePadCountFires) {
  // Predicted-faulty under VTE issued with zero pad cycles.
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  InstState i0 = s.make(0, isa::OpClass::kIntAlu, 5);
  i0.pred_fault = true;
  i0.pred_stage = timing::OooStage::kExecute;
  s.chk.on_dispatched(s.now, i0);
  s.begin_cycle();
  s.issue_with(i0, /*exec_lat=*/1, /*lat_delta=*/0, s.unit_for(i0.di.op), s.now + 2);
  EXPECT_TRUE(fired(s.chk, "delayed-broadcast")) << s.chk.report();
}

TEST(SemanticsStream, MutatedCompletionTimeFires) {
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  const InstState i0 = s.dispatch(0, isa::OpClass::kIntAlu, 5);
  s.begin_cycle();
  s.issue(i0);
  s.begin_cycle();
  s.chk.on_tag_broadcast(s.now, i0, 0);
  s.chk.on_completed(s.now, i0);  // same cycle as the broadcast: one early
  EXPECT_TRUE(fired(s.chk, "completion-time")) << s.chk.report();
}

TEST(SemanticsStream, IssueIntoFrozenSlotFires) {
  cpu::CoreConfig cfg;
  cfg.issue_width = 1;
  Stream s(cpu::scheme_abs(), cfg);
  s.begin_cycle();
  InstState i0 = s.make(0, isa::OpClass::kIntAlu, 5);
  i0.pred_fault = true;
  i0.pred_stage = timing::OooStage::kWriteback;
  s.chk.on_dispatched(s.now, i0);
  const InstState i1 = s.dispatch(1, isa::OpClass::kIntAlu, 6);
  s.begin_cycle();
  s.issue(i0, 1, 1);
  s.begin_cycle(/*frozen=*/1);  // correctly reported freeze...
  s.issue(i1);                  // ...but something issued into it anyway
  EXPECT_TRUE(fired(s.chk, "slot-freeze")) << s.chk.report();
}

TEST(SemanticsStream, UnreportedFreezeFires) {
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  InstState i0 = s.make(0, isa::OpClass::kIntAlu, 5);
  i0.pred_fault = true;
  i0.pred_stage = timing::OooStage::kWriteback;
  s.chk.on_dispatched(s.now, i0);
  s.begin_cycle();
  s.issue(i0, 1, 1);
  s.begin_cycle(/*frozen=*/0);  // freeze owed but not reported
  EXPECT_TRUE(fired(s.chk, "slot-freeze")) << s.chk.report();
}

TEST(SemanticsStream, BusyFunctionalUnitFires) {
  // The unpipelined divider occupies its unit for the full latency; a
  // second divide entering the same unit the next cycle violates the FUSR.
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  const InstState i0 = s.dispatch(0, isa::OpClass::kIntDiv, 5);
  const InstState i1 = s.dispatch(1, isa::OpClass::kIntDiv, 6);
  s.begin_cycle();
  s.issue(i0, s.cfg.div_latency);
  s.begin_cycle();
  s.issue(i1, s.cfg.div_latency);  // same (only) complex unit, still busy
  EXPECT_TRUE(fired(s.chk, "fusr-occupancy")) << s.chk.report();
}

TEST(SemanticsStream, WrongReservationLengthFires) {
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  const InstState i0 = s.dispatch(0, isa::OpClass::kIntAlu, 5);
  s.begin_cycle();
  // A pipelined ALU op must reserve exactly one cycle; claim two.
  s.issue_with(i0, 1, 0, s.unit_for(i0.di.op), s.now + 2);
  EXPECT_TRUE(fired(s.chk, "fusr-occupancy")) << s.chk.report();
}

TEST(SemanticsStream, YoungerBeforeOlderSelectFires) {
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  const InstState i0 = s.dispatch(0, isa::OpClass::kIntAlu, 5);
  const InstState i1 = s.dispatch(1, isa::OpClass::kIntAlu, 6);
  s.begin_cycle();
  s.chk.on_select_pass(s.now, 1);
  s.chk.on_select_visit(s.now, i1, SelectOutcome::kFuBusy);
  s.chk.on_select_visit(s.now, i0, SelectOutcome::kFuBusy);  // ABS skipped the elder
  EXPECT_TRUE(fired(s.chk, "select-order")) << s.chk.report();
}

TEST(SemanticsStream, NotReadyCandidateFires) {
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  s.dispatch(0, isa::OpClass::kIntAlu, /*dst=*/5);
  const InstState i1 = s.dispatch(1, isa::OpClass::kIntAlu, 6, /*s1=*/5);  // waits on 5
  s.begin_cycle();
  s.chk.on_select_pass(s.now, 1);
  s.chk.on_select_visit(s.now, i1, SelectOutcome::kFuBusy);  // operand outstanding
  EXPECT_TRUE(fired(s.chk, "select-candidate")) << s.chk.report();
}

TEST(SemanticsStream, WrongCdlCountFires) {
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  const InstState i0 = s.dispatch(0, isa::OpClass::kIntAlu, 5);
  s.dispatch(1, isa::OpClass::kIntAlu, 6, /*s1=*/5);  // one true dependent
  s.begin_cycle();
  s.issue(i0);
  s.begin_cycle();
  s.chk.on_tag_broadcast(s.now, i0, /*deps=*/3);  // CDL miscount
  EXPECT_TRUE(fired(s.chk, "cdl-count")) << s.chk.report();
}

TEST(SemanticsStream, CriticalBelowThresholdFires) {
  Stream s(cpu::scheme_cds());
  s.begin_cycle();
  const InstState i0 = s.dispatch(0, isa::OpClass::kIntAlu, 5);
  // CT is 8: three dependents must NOT mark the producer critical.
  s.chk.on_mark_critical(s.now, i0, /*deps=*/3, /*critical=*/true);
  EXPECT_TRUE(fired(s.chk, "cds-threshold")) << s.chk.report();
}

TEST(SemanticsStream, WrongPolicyClassInPreferredPassFires) {
  // FFS pass 0 is predicted-faulty only; a clean instruction there is a
  // selection-policy break.
  Stream s(cpu::scheme_ffs());
  s.begin_cycle();
  const InstState i0 = s.dispatch(0, isa::OpClass::kIntAlu, 5);
  s.begin_cycle();
  s.chk.on_select_pass(s.now, 0);
  s.chk.on_select_visit(s.now, i0, SelectOutcome::kFuBusy);
  EXPECT_TRUE(fired(s.chk, "select-candidate")) << s.chk.report();
}

TEST(SemanticsStream, CamSearchInSpacingCycleFires) {
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  InstState i0 = s.make(0, isa::OpClass::kLoad, 5, kNoReg, kNoReg, 0x100);
  i0.pred_fault = true;
  i0.pred_stage = timing::OooStage::kMemory;
  s.chk.on_dispatched(s.now, i0);
  const InstState i1 = s.dispatch(1, isa::OpClass::kStore, kNoReg, kNoReg, kNoReg, 0x200);
  s.begin_cycle();
  s.issue(i0, /*exec_lat=*/3, /*lat_delta=*/1);
  s.begin_cycle(/*frozen=*/0, /*mem_blocked=*/true);  // correctly reported block
  s.chk.on_lsq_search(s.now, i1);                     // CAM searched anyway
  EXPECT_TRUE(fired(s.chk, "lsq-spacing")) << s.chk.report();
}

TEST(SemanticsStream, LoadPassingOlderStoreFires) {
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  s.dispatch(0, isa::OpClass::kStore, kNoReg, kNoReg, kNoReg, 0x100);  // un-issued
  const InstState i1 = s.dispatch(1, isa::OpClass::kLoad, 5, kNoReg, kNoReg, 0x100);
  s.begin_cycle();
  s.issue(i1, /*exec_lat=*/3);  // load issued past the matching older store
  EXPECT_TRUE(fired(s.chk, "stl-order")) << s.chk.report();
}

TEST(SemanticsStream, UnbackedEpStallFires) {
  Stream s(cpu::scheme_error_padding());
  s.begin_cycle();
  s.stall(/*ep_padding=*/true);  // EP-attributed stall with no EP event owed
  EXPECT_TRUE(fired(s.chk, "ep-padding")) << s.chk.report();
}

TEST(SemanticsStream, EpStallAtWrongCycleFires) {
  Stream s(cpu::scheme_error_padding());
  s.begin_cycle();
  InstState i0 = s.make(0, isa::OpClass::kIntAlu, 5);
  i0.pred_fault = true;
  i0.pred_stage = timing::OooStage::kExecute;  // pad due at issue + 2
  s.chk.on_dispatched(s.now, i0);
  s.begin_cycle();
  s.issue(i0);  // EP does not pad the latency (vte off)
  s.begin_cycle();
  s.chk.on_ep_stall(s.now, i0);  // one cycle before the execute-stage transit
  EXPECT_TRUE(fired(s.chk, "ep-padding")) << s.chk.report();
}

TEST(SemanticsStream, UnpredictedFaultWithoutReplayFires) {
  Stream s(cpu::scheme_razor());
  s.begin_cycle();
  InstState i0 = s.make(0, isa::OpClass::kIntAlu, 5);
  s.chk.on_dispatched(s.now, i0);
  s.begin_cycle();
  i0.actual_fault = true;
  i0.actual_stage = timing::OooStage::kExecute;
  i0.replay_scheduled = false;  // Razor must replay every detected fault
  s.issue(i0);
  EXPECT_TRUE(fired(s.chk, "razor-replay")) << s.chk.report();
}

TEST(SemanticsStream, CoveredFaultReplayFires) {
  // A VTE-covered predicted fault (right stage) must never replay.
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  InstState i0 = s.make(0, isa::OpClass::kIntAlu, 5);
  i0.pred_fault = true;
  i0.pred_stage = timing::OooStage::kExecute;
  s.chk.on_dispatched(s.now, i0);
  s.begin_cycle();
  i0.actual_fault = true;
  i0.actual_stage = timing::OooStage::kExecute;
  i0.fault_handled = true;
  s.issue(i0, 1, 1);
  s.begin_cycle();
  s.chk.on_tag_broadcast(s.now, i0, 0);
  s.begin_cycle();
  s.chk.on_replay(s.now, i0);  // covered -> must not happen
  EXPECT_TRUE(fired(s.chk, "razor-replay")) << s.chk.report();
}

TEST(SemanticsStream, OutOfOrderCommitFires) {
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  s.dispatch(0, isa::OpClass::kIntAlu, 5);
  const InstState i1 = s.dispatch(1, isa::OpClass::kIntAlu, 6);
  s.begin_cycle();
  s.chk.on_committed(s.now, i1);  // seq 1 before seq 0
  EXPECT_TRUE(fired(s.chk, "commit-order")) << s.chk.report();
}

TEST(SemanticsStream, NonContiguousDispatchFires) {
  Stream s(cpu::scheme_abs());
  s.begin_cycle();
  s.dispatch(0);
  s.dispatch(2);  // lost seq 1
  EXPECT_TRUE(fired(s.chk, "dispatch-order")) << s.chk.report();
}

// ---- metamorphic differential harness -------------------------------------

class ZeroFaultIdentity : public ::testing::TestWithParam<u64> {};

// With a null fault environment every scheme must degenerate to the same
// machine: no predictions, no pads, no stalls, identical selection -- the
// runs must be bit-identical, not just statistically close.
TEST_P(ZeroFaultIdentity, AllSchemesBitIdenticalWithoutFaults) {
  Pcg32 rng(GetParam(), 0x1de27ULL);
  cpu::CoreConfig cfg;
  cfg.issue_width = 1 + static_cast<int>(rng.next_below(8));
  cfg.fetch_width = cfg.issue_width;
  cfg.dispatch_width = cfg.issue_width;
  cfg.commit_width = cfg.issue_width;
  cfg.rob_entries = 16 << rng.next_below(4);
  cfg.iq_entries = std::min(cfg.rob_entries, 8 << static_cast<int>(rng.next_below(3)));
  cfg.simple_alus = 1 + static_cast<int>(rng.next_below(4));
  cfg.model_wrong_path = rng.next_bool(0.3);
  const auto profiles = workload::spec2006_profiles();
  const auto prof = profiles[rng.next_below(static_cast<u32>(profiles.size()))];

  std::vector<cpu::SchemeConfig> schemes = {cpu::scheme_fault_free(), cpu::scheme_razor(),
                                            cpu::scheme_error_padding(), cpu::scheme_abs(),
                                            cpu::scheme_ffs(), cpu::scheme_cds()};
  std::optional<cpu::PipelineResult> base;
  std::string base_name;
  for (const cpu::SchemeConfig& scheme : schemes) {
    workload::TraceGenerator gen(prof);
    cpu::Pipeline p(cfg, scheme, &gen, /*fault_model=*/nullptr, /*predictor=*/nullptr);
    SemanticsChecker chk(cfg, scheme);
    chk.attach(p);
    const cpu::PipelineResult r = p.run(4000, 2000);
    EXPECT_TRUE(chk.ok()) << scheme.name << "\n" << chk.report();
    EXPECT_GT(chk.checks(), 0u);
    if (!base) {
      base = r;
      base_name = scheme.name;
      continue;
    }
    SCOPED_TRACE(base_name + " vs " + scheme.name + " on " + prof.name);
    EXPECT_EQ(r.committed, base->committed);
    EXPECT_EQ(r.cycles, base->cycles);
    EXPECT_EQ(bits_of(r.ipc()), bits_of(base->ipc()));
    for (int i = 0; i < obs::kNumCpiCauses; ++i) {
      EXPECT_EQ(r.cpi.slots[static_cast<std::size_t>(i)],
                base->cpi.slots[static_cast<std::size_t>(i)])
          << "CPI slot " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZeroFaultIdentity,
                         ::testing::ValuesIn(vasim::fuzzutil::seeds("identity", 1, 8)),
                         ::testing::PrintToStringParamName());

// Every scheme must commit exactly the architectural dynamic instruction
// stream of a real program, faults and all -- the schemes may differ only
// in *when*, never in *what*.
TEST(Metamorphic, EverySchemeCommitsTheArchitecturalStream) {
  const isa::Program prog = isa::assemble(
      "lui r10, 0x10\n"
      "addi r1, r0, 0\n"
      "addi r2, r0, 40\n"
      "L0:\n"
      "ld r3, 0(r10)\n"
      "add r4, r3, r1\n"
      "mul r5, r4, r2\n"
      "st r4, 8(r10)\n"
      "xor r6, r5, r2\n"
      "addi r1, r1, 1\n"
      "blt r1, r2, L0\n"
      "halt\n");
  isa::FunctionalCore ref(&prog);
  isa::DynInst d;
  u64 dynamic_count = 0;
  while (ref.next(d)) ++dynamic_count;
  ASSERT_GT(dynamic_count, 100u);

  for (const cpu::SchemeConfig& scheme :
       {cpu::scheme_fault_free(), cpu::scheme_razor(), cpu::scheme_error_padding(),
        cpu::scheme_abs(), cpu::scheme_ffs(), cpu::scheme_cds()}) {
    timing::PathModelConfig pcfg{7, 0.10, 0.03};
    const timing::FaultModel fm(pcfg, timing::SupplyPoints::kHighFault);
    core::TimingErrorPredictor tep({}, &fm.environment());
    isa::FunctionalCore src(&prog);
    cpu::CoreConfig cfg;
    cpu::Pipeline pipe(cfg, scheme, &src, &fm, scheme.use_predictor ? &tep : nullptr);
    SemanticsChecker chk(cfg, scheme);
    chk.attach(pipe);
    const cpu::PipelineResult r = pipe.run(10 * dynamic_count);
    EXPECT_TRUE(chk.ok()) << scheme.name << "\n" << chk.report();
    EXPECT_EQ(r.committed, dynamic_count) << scheme.name;
  }
}

// Razor micro-stall and Error Padding only ever insert whole-pipeline stall
// cycles into the fault-free schedule (age policy, no VTE reordering), so
// they can never finish a fixed instruction stream in fewer cycles than the
// fault-free machine.  (The VTE schemes CAN legally reorder, so no such
// bound is asserted for them.)
TEST(Metamorphic, StallOnlySchemesNeverBeatFaultFree) {
  for (const char* bench : {"gcc", "mcf"}) {
    const workload::BenchmarkProfile prof = workload::spec2006_profile(bench);
    u64 ff_cycles = 0;
    u64 ff_committed = 0;
    {
      workload::TraceGenerator gen(prof);
      cpu::CoreConfig cfg;
      cpu::Pipeline p(cfg, cpu::scheme_fault_free(), &gen, nullptr, nullptr);
      const cpu::PipelineResult r = p.run(5000, 2000);
      ff_cycles = r.cycles;
      ff_committed = r.committed;
    }
    for (const cpu::SchemeConfig& scheme : {cpu::scheme_razor(), cpu::scheme_error_padding()}) {
      timing::PathModelConfig pcfg{prof.seed, prof.fr_high_pct / 100.0 * prof.fr_calib_high,
                                   prof.fr_low_pct / 100.0 * prof.fr_calib_low};
      const timing::FaultModel fm(pcfg, timing::SupplyPoints::kHighFault);
      core::TimingErrorPredictor tep({}, &fm.environment());
      workload::TraceGenerator gen(prof);
      cpu::CoreConfig cfg;
      cpu::Pipeline p(cfg, scheme, &gen, &fm, scheme.use_predictor ? &tep : nullptr);
      SemanticsChecker chk(cfg, scheme);
      chk.attach(p);
      const cpu::PipelineResult r = p.run(5000, 2000);
      EXPECT_TRUE(chk.ok()) << scheme.name << "\n" << chk.report();
      EXPECT_EQ(r.committed, ff_committed) << scheme.name << " on " << bench;
      EXPECT_GE(r.cycles, ff_cycles) << scheme.name << " on " << bench;
    }
  }
}

// The runner-level integration: check_semantics=true attaches the checker
// to every run and surfaces its evaluation count.
TEST(Metamorphic, RunnerAttachesCheckerOnDemand) {
  core::RunnerConfig rc;
  rc.instructions = 2000;
  rc.warmup = 1000;
  rc.check_semantics = true;
  rc.commit_trail_stride = 256;
  const core::ExperimentRunner runner(rc);
  const workload::BenchmarkProfile prof = workload::spec2006_profile("bzip2");
  const core::RunResult r =
      runner.run(prof, cpu::scheme_abs(), timing::SupplyPoints::kHighFault);
  EXPECT_GT(r.checker_checks, 0u);
  EXPECT_FALSE(r.commit_trail.empty());
  const core::RunResult ff = runner.run(prof, std::nullopt, timing::SupplyPoints::kNominal);
  EXPECT_GT(ff.checker_checks, 0u);
}

// ---- shrinker -------------------------------------------------------------

TEST(Shrink, BisectsToTheMinimalFailingPoint) {
  check::ShrinkSpec spec = {{"a", 100, 1}, {"b", 50, 0}};
  check::ShrinkStats st;
  const auto out = check::shrink_spec(
      spec, [](const check::ShrinkSpec& s) { return s[0].value >= 7 && s[1].value >= 3; },
      /*max_rounds=*/6, &st);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value, 7u);
  EXPECT_EQ(out[1].value, 3u);
  EXPECT_GT(st.probes, 0);
  EXPECT_GE(st.rounds, 1);
}

TEST(Shrink, NeverGoesBelowTheDimensionMinimum) {
  check::ShrinkSpec spec = {{"iters", 64, 8}};
  const auto out =
      check::shrink_spec(spec, [](const check::ShrinkSpec&) { return true; });  // always fails
  EXPECT_EQ(out[0].value, 8u);
}

TEST(Shrink, KeepsTheOriginalWhenNothingSmallerFails) {
  check::ShrinkSpec spec = {{"n", 13, 1}};
  const auto out =
      check::shrink_spec(spec, [](const check::ShrinkSpec& s) { return s[0].value == 13; });
  EXPECT_EQ(out[0].value, 13u);
}

}  // namespace
}  // namespace vasim
