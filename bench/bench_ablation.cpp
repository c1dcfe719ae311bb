// Ablation studies on design choices the paper calls out:
//  1. Criticality Threshold sweep (Section 3.5.2: "a CT of 8 gives the best
//     outcome") on the CDS-friendly workload.
//  2. TEP geometry sweep (table size / history bits).
//  3. Recovery model comparison: squash-refetch vs RazorII-style micro
//     stall for unpredicted faults.
//  4. Sensor gating on/off (Section 2.1.1's thermal/voltage gating).
//
// Every run in every study is one SweepJob (machine/predictor variations
// ride in per-job RunnerConfig overrides), so the whole ablation grid fans
// out over the sweep pool at once and is unpacked in submission order.
#include "bench/bench_util.hpp"

using namespace vasim;

int main() {
  core::RunnerConfig rc = bench::runner_config_from_env();
  rc.instructions = env_u64("VASIM_INSTR", 100'000);
  const core::SweepRunner sweeper(rc);
  bench::print_run_header("Ablations: CT sweep, TEP geometry, recovery model, sensor gating", rc);
  const auto libq = workload::spec2006_profile("libquantum");
  const auto bzip2 = workload::spec2006_profile("bzip2");
  const auto gcc = workload::spec2006_profile("gcc");

  const int cts[] = {2, 4, 8, 12, 16};
  const int tep_entries[] = {256, 1024, 4096};
  const int tep_hist[] = {0, 8};
  const cpu::RecoveryModel recoveries[] = {cpu::RecoveryModel::kSquashRefetch,
                                           cpu::RecoveryModel::kMicroStall};
  const int widths[] = {2, 4, 8};

  std::vector<core::SweepJob> jobs;

  // Study 1: CT sweep.  The fault-free baseline does not depend on CT, so
  // one baseline serves every row.
  jobs.push_back({libq, std::nullopt, 0.97, std::nullopt});
  for (const int ct : cts) {
    cpu::SchemeConfig cds = cpu::scheme_cds();
    cds.criticality_threshold = ct;
    jobs.push_back({libq, cds, 0.97, std::nullopt});
  }

  // Study 2: TEP geometry (baseline is predictor-independent).
  jobs.push_back({bzip2, std::nullopt, 0.97, std::nullopt});
  for (const int entries : tep_entries) {
    for (const int hist : tep_hist) {
      core::RunnerConfig c = rc;
      c.tep.entries = entries;
      c.tep.history_bits = hist;
      jobs.push_back({bzip2, cpu::scheme_abs(), 0.97, c});
    }
  }

  // Study 3: recovery model.
  jobs.push_back({bzip2, std::nullopt, 0.97, std::nullopt});
  for (const auto rec : recoveries) {
    cpu::SchemeConfig razor = cpu::scheme_razor();
    razor.recovery = rec;
    jobs.push_back({bzip2, razor, 0.97, std::nullopt});
  }

  // Study 5: machine width (baseline depends on the width config).
  for (const int width : widths) {
    core::RunnerConfig c = rc;
    c.core.issue_width = width;
    c.core.fetch_width = width;
    c.core.dispatch_width = width;
    c.core.commit_width = width;
    c.core.simple_alus = width / 2;
    jobs.push_back({bzip2, std::nullopt, 0.97, c});
    jobs.push_back({bzip2, cpu::scheme_error_padding(), 0.97, c});
    jobs.push_back({bzip2, cpu::scheme_abs(), 0.97, c});
  }

  // Study 6: next-line prefetch.
  for (const bool pf : {false, true}) {
    core::RunnerConfig c = rc;
    c.core.l2_next_line_prefetch = pf;
    jobs.push_back({libq, std::nullopt, 0.97, c});
    jobs.push_back({libq, cpu::scheme_abs(), 0.97, c});
  }

  // Study 7: wrong-path energy.
  for (const bool wp : {false, true}) {
    core::RunnerConfig c = rc;
    c.core.model_wrong_path = wp;
    jobs.push_back({gcc, std::nullopt, 0.97, c});
    jobs.push_back({gcc, cpu::scheme_razor(), 0.97, c});
  }

  // Study 4: sensor gating (baseline is predictor-independent).
  jobs.push_back({bzip2, std::nullopt, 0.97, std::nullopt});
  for (const bool gating : {true, false}) {
    core::RunnerConfig c = rc;
    c.tep.sensor_gating = gating;
    jobs.push_back({bzip2, cpu::scheme_error_padding(), 0.97, c});
  }

  const core::SweepReport report = sweeper.run(jobs);
  std::size_t at = 0;
  const auto next = [&report, &at]() -> const core::RunResult& {
    return report.jobs.at(at++).result;
  };

  {
    TextTable t({"CT", "CDS perf-ovh% (libquantum @0.97V)", "TEP accuracy"});
    const core::RunResult& ff = next();
    for (const int ct : cts) {
      const core::RunResult& r = next();
      t.add_row({std::to_string(ct), TextTable::fmt(core::overhead_vs(ff, r).perf_pct, 3),
                 TextTable::fmt(r.predictor_accuracy, 3)});
    }
    std::cout << t.render("Ablation 1: Criticality Threshold (paper: CT = 8 best)") << "\n";
  }

  {
    TextTable t({"entries", "hist-bits", "ABS perf-ovh% (bzip2 @0.97V)", "TEP accuracy"});
    const core::RunResult& ff = next();
    for (const int entries : tep_entries) {
      for (const int hist : tep_hist) {
        const core::RunResult& r = next();
        t.add_row({std::to_string(entries), std::to_string(hist),
                   TextTable::fmt(core::overhead_vs(ff, r).perf_pct, 3),
                   TextTable::fmt(r.predictor_accuracy, 3)});
      }
    }
    std::cout << t.render("Ablation 2: TEP geometry (Section 2.1.1)") << "\n";
  }

  {
    TextTable t({"recovery", "Razor perf-ovh% (bzip2 @0.97V)", "replays"});
    const core::RunResult& ff = next();
    for (const auto rec : recoveries) {
      const core::RunResult& r = next();
      t.add_row({rec == cpu::RecoveryModel::kSquashRefetch ? "squash-refetch" : "micro-stall",
                 TextTable::fmt(core::overhead_vs(ff, r).perf_pct, 2),
                 TextTable::fmt(r.replays, 0)});
    }
    std::cout << t.render("Ablation 3: replay recovery model (Section 2.1.2)") << "\n";
  }

  {
    // VTE benefit vs machine width: narrower machines have less slack to
    // hide the faulty instruction's extra cycle.
    TextTable t({"width", "EP perf-ovh%", "ABS perf-ovh%", "ABS/EP"});
    for (const int width : widths) {
      const core::RunResult& ff = next();
      const core::RunResult& ep = next();
      const core::RunResult& abs = next();
      const double oep = core::overhead_vs(ff, ep).perf_pct;
      const double oabs = core::overhead_vs(ff, abs).perf_pct;
      t.add_row({std::to_string(width), TextTable::fmt(oep, 2), TextTable::fmt(oabs, 2),
                 TextTable::fmt(core::normalized_to_ep(oabs, oep), 3)});
    }
    std::cout << t.render("Ablation 5: machine width (bzip2 @0.97V)") << "\n";
  }

  {
    // Prefetching shrinks memory slack: does the VTE's hidden cycle emerge?
    TextTable t({"prefetch", "FF IPC", "ABS perf-ovh% (libquantum @0.97V)"});
    for (const bool pf : {false, true}) {
      const core::RunResult& ff = next();
      const core::RunResult& abs = next();
      t.add_row({pf ? "on" : "off", TextTable::fmt(ff.ipc, 3),
                 TextTable::fmt(core::overhead_vs(ff, abs).perf_pct, 3)});
    }
    std::cout << t.render("Ablation 6: next-line prefetch vs architectural slack") << "\n";
  }

  {
    // Energy cost of mispredicted-path execution (unmodeled in the
    // baseline): how much does wrong-path work inflate ED overheads?
    TextTable t({"wrong-path", "FF IPC (gcc)", "razor ED-ovh% @0.97V"});
    for (const bool wp : {false, true}) {
      const core::RunResult& ff = next();
      const core::RunResult& r = next();
      t.add_row({wp ? "on" : "off", TextTable::fmt(ff.ipc, 3),
                 TextTable::fmt(core::overhead_vs(ff, r).ed_pct, 2)});
    }
    std::cout << t.render("Ablation 7: wrong-path execution energy") << "\n";
  }

  {
    TextTable t({"sensor-gating", "EP perf-ovh% (bzip2 @0.97V)", "TEP accuracy", "false-pos"});
    const core::RunResult& ff = next();
    for (const bool gating : {true, false}) {
      const core::RunResult& r = next();
      t.add_row({gating ? "on" : "off", TextTable::fmt(core::overhead_vs(ff, r).perf_pct, 3),
                 TextTable::fmt(r.predictor_accuracy, 3),
                 std::to_string(r.stats.count("fault.false_positive"))});
    }
    std::cout << t.render("Ablation 4: thermal/voltage sensor gating (Section 2.1.1)") << "\n";
  }
  bench::emit_json("ablation", report);
  return 0;
}
