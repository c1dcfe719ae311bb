// Quickstart: run one benchmark under every scheme at both faulty supplies
// and print the overhead picture the paper's evaluation is built on.
//
// Usage: quickstart [benchmark] [instructions]
//   benchmark     one of the SPEC2006 profile names (default: astar)
//   instructions  committed instructions per run (default: 50000)
#include <cstdlib>
#include <iostream>

#include "src/common/table.hpp"
#include "src/core/runner.hpp"

int main(int argc, char** argv) {
  using namespace vasim;

  const std::string bench = argc > 1 ? argv[1] : "astar";
  core::RunnerConfig rcfg;
  if (argc > 2) rcfg.instructions = std::strtoull(argv[2], nullptr, 10);

  const workload::BenchmarkProfile profile = workload::spec2006_profile(bench);
  const core::ExperimentRunner runner(rcfg);

  std::cout << "vasim quickstart: benchmark=" << profile.name
            << " instructions=" << rcfg.instructions << "\n\n";

  for (const double vdd :
       {timing::SupplyPoints::kLowFault, timing::SupplyPoints::kHighFault}) {
    const core::RunResult base = runner.run(profile, std::nullopt, vdd);
    TextTable t({"scheme", "IPC", "FR%", "replays", "TEP-acc", "perf-ovh%", "ED-ovh%"});
    t.add_row({"fault-free", TextTable::fmt(base.ipc), "-", "-", "-", "0.000", "0.000"});
    for (const auto& scheme : core::comparative_schemes()) {
      const core::RunResult r = runner.run(profile, scheme, vdd);
      const core::Overheads o = core::overhead_vs(base, r);
      t.add_row({r.scheme, TextTable::fmt(r.ipc), TextTable::fmt(r.fault_rate_pct, 2),
                 TextTable::fmt(r.replays, 0), TextTable::fmt(r.predictor_accuracy, 3),
                 TextTable::fmt(o.perf_pct), TextTable::fmt(o.ed_pct)});
    }
    std::cout << t.render("VDD = " + TextTable::fmt(vdd, 2) + " V") << "\n";
  }
  return 0;
}
