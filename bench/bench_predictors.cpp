// Predictor comparison: the paper's TEP (Section 2.1.1) against its two
// ancestors -- Xin & Joseph's Most-Recent-Entry predictor [13] and Roy &
// Chakraborty's Timing Violation Predictor [12] -- measuring coverage
// (handled / actual faults), false positives, replays and the resulting ABS
// performance overhead at the high fault rate.
#include "bench/bench_util.hpp"

using namespace vasim;

int main() {
  core::RunnerConfig rc = bench::runner_config_from_env();
  rc.instructions = env_u64("VASIM_INSTR", 100'000);
  const core::SweepRunner sweeper(rc);
  bench::print_run_header("Predictor study: TEP vs MRE [13] vs TVP [12] (ABS @ 0.97 V)", rc);

  const struct {
    const char* name;
    core::PredictorKind kind;
  } kinds[] = {{"TEP", core::PredictorKind::kTep},
               {"MRE", core::PredictorKind::kMre},
               {"TVP", core::PredictorKind::kTvp}};

  // One grid: per predictor kind (a per-job config override), per profile,
  // the fault-free baseline and the ABS run -- 72 jobs for the default 12
  // SPEC2006 workloads.
  const auto profiles = workload::spec2006_profiles();
  std::vector<core::SweepJob> jobs;
  jobs.reserve(std::size(kinds) * profiles.size() * 2);
  for (const auto& kind : kinds) {
    core::RunnerConfig c = rc;
    c.predictor = kind.kind;
    for (const auto& prof : profiles) {
      jobs.push_back({prof, std::nullopt, 0.97, c});
      jobs.push_back({prof, cpu::scheme_abs(), 0.97, c});
    }
  }
  const core::SweepReport report = sweeper.run(jobs);

  TextTable t({"predictor", "coverage", "false-pos/kinstr", "replays/kinstr", "ABS perf-ovh%"});
  std::size_t at = 0;
  for (const auto& kind : kinds) {
    double cov = 0, fp = 0, rp = 0, ovh = 0;
    int n = 0;
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      const core::RunResult& ff = report.jobs[at++].result;
      const core::RunResult& r = report.jobs[at++].result;
      cov += r.predictor_accuracy;
      fp += static_cast<double>(r.stats.count("fault.false_positive")) /
            static_cast<double>(r.committed) * 1000.0;
      rp += r.replays / static_cast<double>(r.committed) * 1000.0;
      ovh += core::overhead_vs(ff, r).perf_pct;
      ++n;
    }
    t.add_row({kind.name, TextTable::fmt(cov / n, 3), TextTable::fmt(fp / n, 2),
               TextTable::fmt(rp / n, 2), TextTable::fmt(ovh / n, 2)});
  }
  std::cout << t.render("Averages over the 12 SPEC2006 workloads") << "\n";
  std::cout << "Reading: all three designs reach high coverage on recurring faults.\n"
               "The TEP's extra machinery cuts false positives (vs the untagged TVP)\n"
               "but costs coverage in this model: sensor gating holds weak entries\n"
               "back, and branch-history indexing spreads one PC's fault state over\n"
               "several entries that each retrain from scratch.  When violations are\n"
               "as PC-deterministic as the commonality study says, the simpler\n"
               "last-outcome MRE is hard to beat -- history indexing pays off only\n"
               "when fault behaviour is context-dependent (see Ablation 2's table-size\n"
               "interaction).\n";
  bench::emit_json("predictors", report);
  return 0;
}
