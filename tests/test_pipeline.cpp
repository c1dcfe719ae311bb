// Pipeline tests: correctness of the OoO model itself, plus the fault
// handling schemes under injection.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "src/cpu/pipeline.hpp"
#include "src/isa/assembler.hpp"
#include "src/isa/executor.hpp"
#include "src/timing/fault_model.hpp"
#include "src/workload/profiles.hpp"
#include "src/workload/trace_generator.hpp"

namespace vasim::cpu {
namespace {

/// Straight-line ALU stream with configurable dependence.
struct SyntheticSource final : isa::InstructionSource {
  u64 n = 0;
  u64 limit;
  bool serial;
  explicit SyntheticSource(u64 count, bool serial_chain = false)
      : limit(count), serial(serial_chain) {}
  bool next(isa::DynInst& d) override {
    if (n >= limit) return false;
    d = {};
    d.pc = 0x1000 + (n % 64) * 4;
    d.op = isa::OpClass::kIntAlu;
    d.src1 = serial ? 2 : 1;  // serial: read own previous result
    d.dst = serial ? 2 : 2 + static_cast<int>(n % 8);
    d.next_pc = d.pc + 4;
    ++n;
    return true;
  }
  std::string name() const override { return "synthetic"; }
};

/// Oracle predictor: predicts exactly the fault model's deterministic
/// component (perfect TEP).
struct OraclePredictor final : FaultPredictor {
  const timing::FaultModel* fm;
  explicit OraclePredictor(const timing::FaultModel* model) : fm(model) {}
  FaultPrediction predict(Pc pc, u64, Cycle now) override {
    FaultPrediction p;
    const auto d = fm->query(pc, timing::FaultClass::kAluLike, now);
    p.predicted = d.core_faulty;
    p.stage = d.stage;
    return p;
  }
  void train(Pc, u64, bool, timing::OooStage) override {}
  void mark_critical(Pc, u64, bool) override {}
};

TEST(Pipeline, CommitsEveryInstructionOfAProgram) {
  const isa::Program prog = isa::assemble(R"(
      addi r1, r0, 0
      addi r2, r0, 1
      addi r3, r0, 201
    loop:
      add  r1, r1, r2
      addi r2, r2, 1
      blt  r2, r3, loop
      halt
  )");
  isa::FunctionalCore ref(&prog);
  isa::DynInst d;
  u64 dynamic_count = 0;
  while (ref.next(d)) ++dynamic_count;

  isa::FunctionalCore src(&prog);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_fault_free(), &src, nullptr, nullptr);
  const PipelineResult r = p.run(1'000'000);
  EXPECT_EQ(r.committed, dynamic_count);
  EXPECT_GT(r.cycles, dynamic_count / 4);  // cannot beat issue width
}

TEST(Pipeline, IndependentAluStreamNearsAluThroughput) {
  SyntheticSource src(30000);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_fault_free(), &src, nullptr, nullptr);
  const PipelineResult r = p.run(29000);
  EXPECT_GT(r.ipc(), 1.8);  // 2 simple ALUs
  EXPECT_LE(r.ipc(), 2.05);
}

TEST(Pipeline, SerialChainLimitsIpcToOne) {
  SyntheticSource src(20000, /*serial=*/true);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_fault_free(), &src, nullptr, nullptr);
  const PipelineResult r = p.run(19000);
  EXPECT_LT(r.ipc(), 1.05);
  EXPECT_GT(r.ipc(), 0.90);
}

TEST(Pipeline, WiderAluPoolRaisesThroughput) {
  SyntheticSource a(30000), b(30000);
  CoreConfig narrow, wide;
  wide.simple_alus = 4;
  Pipeline pn(narrow, scheme_fault_free(), &a, nullptr, nullptr);
  Pipeline pw(wide, scheme_fault_free(), &b, nullptr, nullptr);
  EXPECT_GT(pw.run(29000).ipc(), pn.run(29000).ipc() * 1.5);
}

TEST(Pipeline, StoreLoadForwardingPreservesProgress) {
  const isa::Program prog = isa::assemble(R"(
      lui  r1, 0x100
      addi r2, r0, 7
      addi r5, r0, 0
      addi r6, r0, 50
    loop:
      st   r2, 0(r1)
      ld   r3, 0(r1)
      add  r2, r3, r2
      addi r5, r5, 1
      blt  r5, r6, loop
      halt
  )");
  isa::FunctionalCore src(&prog);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_fault_free(), &src, nullptr, nullptr);
  const PipelineResult r = p.run(1'000'000);
  EXPECT_GT(r.committed, 200u);
  EXPECT_GT(r.stats.count("ev.stl_forward"), 10u);
}

TEST(Pipeline, MispredictsCostCycles) {
  auto easy = workload::spec2006_profile("sjeng");
  auto hard = easy;
  easy.branch_random_frac = 0.0;
  hard.branch_random_frac = 0.5;
  workload::TraceGenerator ge(easy), gh(hard);
  CoreConfig cfg;
  Pipeline pe(cfg, scheme_fault_free(), &ge, nullptr, nullptr);
  Pipeline ph(cfg, scheme_fault_free(), &gh, nullptr, nullptr);
  const PipelineResult re = pe.run(30000, 10000);
  const PipelineResult rh = ph.run(30000, 10000);
  EXPECT_GT(rh.stats.count("branch.mispredict"), re.stats.count("branch.mispredict") * 3);
  EXPECT_GT(re.ipc(), rh.ipc());
}

TEST(Pipeline, ColdMissesCostCycles) {
  auto light = workload::spec2006_profile("sjeng");
  auto heavy = light;
  light.cold_frac = 0.0;
  heavy.cold_frac = 0.15;
  workload::TraceGenerator gl(light), gh(heavy);
  CoreConfig cfg;
  Pipeline pl(cfg, scheme_fault_free(), &gl, nullptr, nullptr);
  Pipeline ph(cfg, scheme_fault_free(), &gh, nullptr, nullptr);
  EXPECT_GT(pl.run(20000, 10000).ipc(), ph.run(20000, 10000).ipc() * 1.3);
}

TEST(Pipeline, WarmupExcludedFromMeasurement) {
  SyntheticSource src(50000);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_fault_free(), &src, nullptr, nullptr);
  const PipelineResult r = p.run(20000, 10000);
  EXPECT_EQ(r.committed, 20000u);
  EXPECT_EQ(r.stats.count("ev.commit"), 20000u);
  EXPECT_LT(r.cycles, 15000u);  // ~2 IPC, not counting warmup cycles
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto prof = workload::spec2006_profile("gcc");
  Cycle cycles[2];
  for (int i = 0; i < 2; ++i) {
    workload::TraceGenerator g(prof);
    CoreConfig cfg;
    Pipeline p(cfg, scheme_fault_free(), &g, nullptr, nullptr);
    cycles[i] = p.run(20000).cycles;
  }
  EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(Pipeline, NoFaultsAtNominalSupply) {
  const auto prof = workload::spec2006_profile("astar");
  workload::TraceGenerator g(prof);
  timing::PathModelConfig pcfg{prof.seed, 0.08, 0.02};
  const timing::FaultModel fm(pcfg, timing::SupplyPoints::kNominal);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_razor(), &g, &fm, nullptr);
  const PipelineResult r = p.run(20000);
  EXPECT_EQ(r.stats.count("fault.actual"), 0u);
  EXPECT_EQ(r.stats.count("fault.replays"), 0u);
}

// ---- scheme sweep under fault injection ----------------------------------

// The scheme name is held inline, not as a pointer: gtest prints the
// parameter's bytes into the CTest name, and a pointer's bytes differ from
// build to build.
struct SchemeCase {
  char scheme[8];
  double vdd;
};

class SchemeSweep : public ::testing::TestWithParam<SchemeCase> {
 protected:
  static SchemeConfig config_for(const std::string& name) {
    if (name == "razor") return scheme_razor();
    if (name == "ep") return scheme_error_padding();
    if (name == "abs") return scheme_abs();
    if (name == "ffs") return scheme_ffs();
    if (name == "cds") return scheme_cds();
    return scheme_fault_free();
  }
};

TEST_P(SchemeSweep, RunsToCompletionWithConsistentFaultAccounting) {
  const auto [scheme_name, vdd] = GetParam();
  const auto prof = workload::spec2006_profile("bzip2");
  workload::TraceGenerator g(prof);
  timing::PathModelConfig pcfg{prof.seed, prof.fr_high_pct / 100.0, prof.fr_low_pct / 100.0};
  const timing::FaultModel fm(pcfg, vdd);
  OraclePredictor oracle(&fm);
  const SchemeConfig scheme = config_for(scheme_name);
  CoreConfig cfg;
  Pipeline p(cfg, scheme, &g, &fm, scheme.use_predictor ? &oracle : nullptr);
  const PipelineResult r = p.run(25000, 5000);

  EXPECT_EQ(r.committed, 25000u);
  const u64 actual = r.stats.count("fault.actual");
  const u64 handled = r.stats.count("fault.handled");
  const u64 replays = r.stats.count("fault.replays");
  EXPECT_GT(actual, 50u) << "fault injection must be active";
  // Every actual fault is either handled in place or replayed; replays can
  // exceed the unhandled count only via re-faulting squashed work.
  EXPECT_LE(handled, actual);
  if (scheme.use_predictor) {
    EXPECT_GT(handled, actual / 2) << "oracle predictor should cover most faults";
  } else {
    EXPECT_EQ(handled, 0u);
    EXPECT_GE(replays, actual / 2);
  }
  if (scheme.error_padding) {
    EXPECT_GT(r.stats.count("ep.stalls"), 0u);
    EXPECT_GT(r.stats.count("ev.stall_cycles"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemeSweep,
    ::testing::Values(SchemeCase{"razor", 1.04}, SchemeCase{"razor", 0.97},
                      SchemeCase{"ep", 1.04}, SchemeCase{"ep", 0.97},
                      SchemeCase{"abs", 1.04}, SchemeCase{"abs", 0.97},
                      SchemeCase{"ffs", 1.04}, SchemeCase{"ffs", 0.97},
                      SchemeCase{"cds", 1.04}, SchemeCase{"cds", 0.97}),
    [](const ::testing::TestParamInfo<SchemeCase>& info) {
      return std::string(info.param.scheme) + (info.param.vdd > 1.0 ? "_low" : "_high");
    });

TEST(Schemes, VteBeatsErrorPaddingBeatsRazor) {
  const auto prof = workload::spec2006_profile("sjeng");
  timing::PathModelConfig pcfg{prof.seed, prof.fr_high_pct / 100.0 * prof.fr_calib_high,
                               prof.fr_low_pct / 100.0 * prof.fr_calib_low};
  const timing::FaultModel fm(pcfg, 0.97);

  auto run_scheme = [&](const SchemeConfig& s) {
    workload::TraceGenerator g(prof);
    OraclePredictor oracle(&fm);
    CoreConfig cfg;
    Pipeline p(cfg, s, &g, &fm, s.use_predictor ? &oracle : nullptr);
    return p.run(30000, 10000).ipc();
  };

  const double ff = [&] {
    workload::TraceGenerator g(prof);
    CoreConfig cfg;
    Pipeline p(cfg, scheme_fault_free(), &g, nullptr, nullptr);
    return p.run(30000, 10000).ipc();
  }();
  const double razor = run_scheme(scheme_razor());
  const double ep = run_scheme(scheme_error_padding());
  const double abs = run_scheme(scheme_abs());

  EXPECT_GT(ff, ep);
  EXPECT_GT(ep, razor);
  EXPECT_GT(abs, ep) << "violation-aware scheduling must beat stall-based padding";
}

TEST(Schemes, ReplayedInstructionsStillCommitExactly) {
  // Replay machinery must never lose or duplicate instructions.
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  timing::PathModelConfig pcfg{prof.seed, 0.12, 0.04};  // aggressive fault rate
  const timing::FaultModel fm(pcfg, 0.97);
  SchemeConfig razor = scheme_razor();
  razor.recovery = RecoveryModel::kSquashRefetch;
  CoreConfig cfg;
  Pipeline p(cfg, razor, &g, &fm, nullptr);
  const PipelineResult r = p.run(20000);
  EXPECT_EQ(r.committed, 20000u);
  EXPECT_GT(r.stats.count("fault.replays"), 100u);
  EXPECT_GT(r.stats.count("ev.squash"), r.stats.count("fault.replays"));
}

TEST(Schemes, MicroStallRecoveryAlsoCompletes) {
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  timing::PathModelConfig pcfg{prof.seed, 0.12, 0.04};
  const timing::FaultModel fm(pcfg, 0.97);
  SchemeConfig scheme = scheme_razor();
  scheme.recovery = RecoveryModel::kMicroStall;
  CoreConfig cfg;
  Pipeline p(cfg, scheme, &g, &fm, nullptr);
  const PipelineResult r = p.run(20000);
  EXPECT_EQ(r.committed, 20000u);
  EXPECT_GT(r.stats.count("ev.stall_cycles"), 0u);
  EXPECT_EQ(r.stats.count("ev.squash"), 0u);
}

TEST(Schemes, EpStallsTrackPredictedFaults) {
  const auto prof = workload::spec2006_profile("bzip2");
  workload::TraceGenerator g(prof);
  timing::PathModelConfig pcfg{prof.seed, 0.08, 0.03};
  const timing::FaultModel fm(pcfg, 0.97);
  OraclePredictor oracle(&fm);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_error_padding(), &g, &fm, &oracle);
  const PipelineResult r = p.run(20000);
  const u64 predicted = r.stats.count("fault.predicted");
  const u64 stalls = r.stats.count("ep.stalls");
  EXPECT_GT(predicted, 0u);
  // Every surviving predicted-faulty instruction schedules one stall.
  EXPECT_NEAR(static_cast<double>(stalls), static_cast<double>(predicted),
              0.15 * static_cast<double>(predicted));
}

// ---- config validation (named errors) ----------------------------------------

void expect_invalid(const CoreConfig& cfg, const std::string& needle) {
  try {
    validate_core_config(cfg);
    FAIL() << "expected invalid_argument mentioning '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error message '" << e.what() << "' does not mention '" << needle << "'";
  }
}

TEST(CoreConfigValidation, NamedErrorsForEachConstraint) {
  CoreConfig ok;
  EXPECT_NO_THROW(validate_core_config(ok));

  CoreConfig iq_pow2 = ok;
  iq_pow2.iq_entries = 48;
  expect_invalid(iq_pow2, "power of two");

  // The queue count is a dispatch gate, not the window size: an iq gate
  // larger than the ROB (or a ROB smaller than the default iq) is legal and
  // simply never binds.
  CoreConfig iq_over_rob = ok;
  iq_over_rob.iq_entries = 256;
  EXPECT_NO_THROW(validate_core_config(iq_over_rob));
  CoreConfig small_rob = ok;
  small_rob.rob_entries = 16;
  EXPECT_NO_THROW(validate_core_config(small_rob));

  CoreConfig rob_zero = ok;
  rob_zero.rob_entries = 0;
  expect_invalid(rob_zero, "rob_entries out of range");

  CoreConfig rob_huge = ok;
  rob_huge.rob_entries = 1 << 20;
  expect_invalid(rob_huge, "rob_entries out of range");

  CoreConfig lq_zero = ok;
  lq_zero.lq_entries = 0;
  expect_invalid(lq_zero, "must be positive");

  CoreConfig phys_small = ok;
  phys_small.phys_regs = 33;
  expect_invalid(phys_small, "arch regs + dispatch_width");
}

TEST(CoreConfigValidation, PipelineConstructorEnforcesValidation) {
  CoreConfig bad;
  bad.iq_entries = 48;
  workload::TraceGenerator gen(workload::spec2006_profile("bzip2"));
  EXPECT_THROW(Pipeline(bad, scheme_fault_free(), &gen, nullptr, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace vasim::cpu
