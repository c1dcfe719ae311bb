// In-order vs out-of-order comparison: where does the violation-aware win
// come from?
//
// On the scalar in-order core there is no scheduling freedom: a predicted-
// faulty instruction's extra cycle stalls everything behind it, so the
// "violation-aware" scheme collapses onto Error Padding.  On the OoO core
// the same faults hide in the window's slack.  This bench quantifies that
// contrast -- the architectural argument behind the paper's focus on OoO
// pipelines (Section 2.2: "the likelihood of timing errors is significantly
// more in the OoO engine", and Section 3's whole design).
#include "bench/bench_util.hpp"
#include "src/cpu/inorder.hpp"
#include "src/core/tep.hpp"
#include "src/workload/trace_generator.hpp"

using namespace vasim;

namespace {

struct InOrderRun {
  double ipc = 0;
  double overhead_pct = 0;
};

InOrderRun run_inorder(const workload::BenchmarkProfile& prof, const cpu::SchemeConfig& scheme,
                       double vdd, u64 instr, u64 warmup) {
  timing::PathModelConfig pcfg;
  pcfg.seed = prof.seed;
  pcfg.p_faulty_high = prof.fr_high_pct / 100.0 * prof.fr_calib_high;
  pcfg.p_faulty_low = prof.fr_low_pct / 100.0 * prof.fr_calib_low;
  const timing::FaultModel fm(pcfg, vdd);
  core::TimingErrorPredictor tep({}, &fm.environment());

  const auto one = [&](const cpu::SchemeConfig& s, const timing::FaultModel* model) {
    workload::TraceGenerator gen(prof);
    cpu::InOrderConfig cfg;
    cpu::InOrderPipeline pipe(cfg, s, &gen, model, s.use_predictor ? &tep : nullptr);
    return pipe.run(instr, warmup);
  };
  const cpu::PipelineResult ff = one(cpu::scheme_fault_free(), nullptr);
  const cpu::PipelineResult r = one(scheme, &fm);
  InOrderRun out;
  out.ipc = r.ipc();
  out.overhead_pct = (ff.ipc() / r.ipc() - 1.0) * 100.0;
  return out;
}

}  // namespace

int main() {
  core::RunnerConfig rc = bench::runner_config_from_env();
  rc.instructions = env_u64("VASIM_INSTR", 100'000);
  const core::SweepRunner sweeper(rc);
  bench::print_run_header("In-order vs OoO: who can hide a predicted fault's extra cycle?", rc);

  // The OoO half of every row is a sweep job; the scalar in-order pipeline
  // has no ExperimentRunner wrapper and stays inline.
  const char* names[] = {"bzip2", "gobmk", "sjeng", "libquantum"};
  std::vector<core::SweepJob> jobs;
  for (const char* name : names) {
    const auto prof = workload::spec2006_profile(name);
    jobs.push_back({prof, std::nullopt, 0.97, std::nullopt});
    jobs.push_back({prof, cpu::scheme_error_padding(), 0.97, std::nullopt});
    jobs.push_back({prof, cpu::scheme_abs(), 0.97, std::nullopt});
  }
  const core::SweepReport report = sweeper.run(jobs);

  TextTable t({"benchmark", "inorder EP-ovh%", "inorder ABS-ovh%", "OoO EP-ovh%",
               "OoO ABS-ovh%"});
  double io_ep = 0, io_abs = 0, ooo_ep = 0, ooo_abs = 0;
  int n = 0;
  std::size_t at = 0;
  for (const char* name : names) {
    const auto prof = workload::spec2006_profile(name);
    const InOrderRun iep =
        run_inorder(prof, cpu::scheme_error_padding(), 0.97, rc.instructions, rc.warmup);
    const InOrderRun iabs = run_inorder(prof, cpu::scheme_abs(), 0.97, rc.instructions, rc.warmup);
    const core::RunResult& ff = report.jobs[at++].result;
    const core::RunResult& oep = report.jobs[at++].result;
    const core::RunResult& oabs = report.jobs[at++].result;
    const double oep_pct = core::overhead_vs(ff, oep).perf_pct;
    const double oabs_pct = core::overhead_vs(ff, oabs).perf_pct;
    t.add_row({name, TextTable::fmt(iep.overhead_pct, 2), TextTable::fmt(iabs.overhead_pct, 2),
               TextTable::fmt(oep_pct, 2), TextTable::fmt(oabs_pct, 2)});
    io_ep += iep.overhead_pct;
    io_abs += iabs.overhead_pct;
    ooo_ep += oep_pct;
    ooo_abs += oabs_pct;
    ++n;
  }
  t.add_row({"AVERAGE", TextTable::fmt(io_ep / n, 2), TextTable::fmt(io_abs / n, 2),
             TextTable::fmt(ooo_ep / n, 2), TextTable::fmt(ooo_abs / n, 2)});
  std::cout << t.render("Overheads vs each core's own fault-free baseline @ 0.97 V") << "\n";
  std::cout << "Expected shape: on the in-order core ABS == EP (no slack to hide the\n"
               "padded cycle); on the OoO core ABS removes most of EP's overhead -- the\n"
               "violation-aware scheduling framework is an *out-of-order* technique.\n";
  bench::emit_json("inorder", report);
  return 0;
}
