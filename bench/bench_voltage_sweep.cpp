// Voltage sweep: the paper's motivation in one chart (Section 1:
// "microprocessors can operate at a tighter frequency, where predictable
// errors frequently occur and are tolerated with minimal performance
// loss").  Sweeps VDD below nominal and reports, per scheme, the fault
// rate, performance overhead, and total energy relative to nominal-supply
// fault-free execution -- showing how far each scheme can undervolt before
// fault handling erases the energy win.
#include "bench/bench_util.hpp"

using namespace vasim;

int main() {
  core::RunnerConfig rc = bench::runner_config_from_env();
  rc.instructions = env_u64("VASIM_INSTR", 100'000);
  const core::SweepRunner sweeper(rc);
  bench::print_run_header("Voltage sweep: undervolting headroom per scheme (bzip2)", rc);

  const auto prof = workload::spec2006_profile("bzip2");
  const double vdds[] = {1.10, 1.07, 1.04, 1.00, 0.97};
  const char* names[] = {"razor", "ep", "abs"};

  // Job 0: nominal fault-free baseline; then (razor, ep, abs) per supply.
  std::vector<core::SweepJob> jobs;
  jobs.push_back({prof, std::nullopt, timing::SupplyPoints::kNominal, std::nullopt});
  for (const double vdd : vdds) {
    for (const char* name : names) {
      jobs.push_back({prof, *core::scheme_by_name(name), vdd, std::nullopt});
    }
  }
  const core::SweepReport report = sweeper.run(jobs);
  const core::RunResult& nominal = report.jobs[0].result;

  TextTable t({"VDD", "FR%", "razor perf%/energy", "ep perf%/energy", "abs perf%/energy"});
  std::size_t at = 1;
  for (const double vdd : vdds) {
    std::vector<std::string> row = {TextTable::fmt(vdd, 2)};
    std::string fr;
    for (std::size_t s = 0; s < std::size(names); ++s) {
      const core::RunResult& r = report.jobs[at++].result;
      if (fr.empty()) fr = TextTable::fmt(r.fault_rate_pct, 2);
      // Performance vs *nominal* fault-free; energy relative to nominal run.
      const double perf = (nominal.ipc / r.ipc - 1.0) * 100.0;
      const double energy = r.energy.total_nj() / nominal.energy.total_nj();
      row.push_back(TextTable::fmt(perf, 1) + "% / " + TextTable::fmt(energy, 3));
    }
    row.insert(row.begin() + 1, fr);
    t.add_row(row);
  }
  std::cout << t.render() << "\n";
  std::cout << "Reading: at each supply, energy < 1.0 means the undervolt still saves\n"
               "energy after fault handling.  Razor's replay work erodes the saving\n"
               "quickly; violation-aware scheduling holds the performance line, letting\n"
               "the core run at the lowest supply -- the paper's \"energy-efficient\n"
               "alternative for robust pipelines\".\n";
  bench::emit_json("voltage_sweep", report);
  return 0;
}
