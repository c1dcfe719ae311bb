// Reproduces the paper's pipeline evaluation (Section 5) from one grid,
// core::paper_grid: 12 benchmarks x {1.04, 0.97} V x (fault-free + Razor,
// EP, ABS, FFS, CDS), simulated once and rendered as
//   Table 1      fault-free IPC, OoO-engine fault rates, and the (perf %,
//                ED %) overhead tuples of the Razor and Error Padding
//                baselines at both supplies;
//   Figures 4/5  performance and energy-delay overhead of the
//                violation-aware schemes (ABS/FFS/CDS) normalized to EP at
//                the low fault rate (1.04 V);
//   Figures 8/9  the same at the high fault rate (0.97 V, Supplement S2).
// stdout holds nothing host-dependent, so it is byte-identical at any
// VASIM_JOBS; EXPERIMENTS.md commits it verbatim between bench_paper markers.
#include <algorithm>
#include <stdexcept>

#include "bench/bench_util.hpp"

using namespace vasim;

namespace {

/// The result of `scheme` ("fault-free", "razor", ...) for profile number
/// `profile` at `vdd` in a core::paper_grid report.
const core::RunResult& cell(const core::SweepReport& report, std::size_t profile, double vdd,
                            const std::string& scheme) {
  const auto& vdds = core::kPaperSupplies;
  const auto v =
      static_cast<std::size_t>(std::find(vdds.begin(), vdds.end(), vdd) - vdds.begin());
  const std::size_t per_supply = 1 + core::comparative_schemes().size();
  const std::size_t first = (profile * vdds.size() + v) * per_supply;
  for (std::size_t j = first; j < first + per_supply; ++j) {
    const core::RunResult& r = report.jobs.at(j).result;
    if (r.scheme == scheme) return r;
  }
  throw std::logic_error("bench_paper: no " + scheme + " job in the paper grid");
}

// Fault-free execution does not depend on the supply (a fault-free job gets
// no fault model; only its energy line moves), so the 1.04 V baseline gives
// the IPC column.
void print_table1(const core::SweepReport& report,
                  const std::vector<workload::BenchmarkProfile>& profiles) {
  TextTable t({"benchmark", "FF-IPC", "(paper)", "FR%@0.97", "Razor(perf,ED)%", "EP(perf,ED)%",
               "FR%@1.04", "Razor(perf,ED)%", "EP(perf,ED)%"});
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const core::RunResult& ff = cell(report, p, timing::SupplyPoints::kLowFault, "fault-free");
    std::vector<std::string> row = {profiles[p].name, TextTable::fmt(ff.ipc, 2),
                                    "(" + TextTable::fmt(profiles[p].paper_ipc, 2) + ")"};
    for (const double vdd : {timing::SupplyPoints::kHighFault, timing::SupplyPoints::kLowFault}) {
      const core::RunResult& base = cell(report, p, vdd, "fault-free");
      const core::RunResult& razor = cell(report, p, vdd, "razor");
      const core::Overheads orz = core::overhead_vs(base, razor);
      const core::Overheads oep = core::overhead_vs(base, cell(report, p, vdd, "ep"));
      row.push_back(TextTable::fmt(razor.fault_rate_pct, 2));
      row.push_back("(" + TextTable::fmt(orz.perf_pct, 1) + "," + TextTable::fmt(orz.ed_pct, 1) +
                    ")");
      row.push_back("(" + TextTable::fmt(oep.perf_pct, 2) + "," + TextTable::fmt(oep.ed_pct, 2) +
                    ")");
    }
    t.add_row(row);
  }
  std::cout << t.render("Table 1: Benchmark Fault Rates and Razor/EP overheads") << "\n";
  std::cout << "Paper reference (Table 1): FR 5.6-10.5% @0.97V and 1.4-2.3% @1.04V;\n"
               "Razor overhead 25-59% @0.97V, 7-25% @1.04V; EP overhead 2-15% @0.97V,\n"
               "0.5-3.8% @1.04V.  Expected shape: Razor >> EP at both supplies.\n";
}

/// Figures 4/5 (vdd 1.04 V) or 8/9 (0.97 V): each violation-aware scheme's
/// overhead as a share of EP's, per benchmark and on average.
void print_figures(const core::SweepReport& report,
                   const std::vector<workload::BenchmarkProfile>& profiles, double vdd,
                   int perf_figure, const std::string& paper_note) {
  const char* names[3] = {"abs", "ffs", "cds"};
  TextTable perf({"benchmark", "ABS", "FFS", "CDS"});
  TextTable ed({"benchmark", "ABS", "FFS", "CDS"});
  double sum_perf[3] = {0, 0, 0};
  double sum_ed[3] = {0, 0, 0};
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const core::RunResult& base = cell(report, p, vdd, "fault-free");
    const core::Overheads ep = core::overhead_vs(base, cell(report, p, vdd, "ep"));
    std::vector<std::string> prow = {profiles[p].name};
    std::vector<std::string> erow = {profiles[p].name};
    for (int i = 0; i < 3; ++i) {
      const core::Overheads o = core::overhead_vs(base, cell(report, p, vdd, names[i]));
      const double np = core::normalized_to_ep(o.perf_pct, ep.perf_pct);
      const double ne = core::normalized_to_ep(o.ed_pct, ep.ed_pct);
      prow.push_back(TextTable::fmt(np));
      erow.push_back(TextTable::fmt(ne));
      sum_perf[i] += np;
      sum_ed[i] += ne;
    }
    perf.add_row(prow);
    ed.add_row(erow);
  }
  const auto n = static_cast<double>(profiles.size());
  std::vector<std::string> pavg = {"AVERAGE"};
  std::vector<std::string> eavg = {"AVERAGE"};
  double best_perf = 1.0;
  for (int i = 0; i < 3; ++i) {
    pavg.push_back(TextTable::fmt(sum_perf[i] / n));
    eavg.push_back(TextTable::fmt(sum_ed[i] / n));
    best_perf = std::min(best_perf, sum_perf[i] / n);
  }
  perf.add_row(pavg);
  ed.add_row(eavg);

  const std::string at = TextTable::fmt(vdd, 2) + " V";
  std::cout << perf.render("Figure " + std::to_string(perf_figure) +
                           ": relative performance overhead vs EP at " + at +
                           " (lower is better)")
            << "\n";
  std::cout << ed.render("Figure " + std::to_string(perf_figure + 1) +
                         ": relative ED overhead vs EP at " + at + " (lower is better)")
            << "\n";
  std::cout << "Headline: our schemes remove " << TextTable::fmt((1.0 - best_perf) * 100.0, 0)
            << "% of EP's performance overhead on average at " << at << "\n"
            << "(paper: " << paper_note << ").\n";
}

}  // namespace

int main() {
  const core::RunnerConfig rc = bench::runner_config_from_env();
  const core::SweepRunner sweeper(rc);
  bench::print_run_header("Paper grid: Table 1 and Figures 4/5/8/9", rc);

  const auto profiles = workload::spec2006_profiles();
  const core::SweepReport report = sweeper.run(core::paper_grid(profiles));

  print_table1(report, profiles);
  std::cout << "\n";
  print_figures(report, profiles, timing::SupplyPoints::kLowFault, 4,
                "87% average reduction; per-benchmark 64-97%");
  std::cout << "\n";
  print_figures(report, profiles, timing::SupplyPoints::kHighFault, 8,
                "88% average reduction; ED reduction 83%");
  bench::emit_json("paper", report);
  return 0;
}
