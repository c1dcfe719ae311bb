// Shared helpers for the reproduction benches.
//
// Run length is controlled by environment variables so CI can shrink and
// archival runs can grow the experiments:
//   VASIM_INSTR   measured committed instructions per run (default
//                 core::RunnerConfig{}, 200000)
//   VASIM_WARMUP  warmup instructions per run (default 150000, likewise)
//   VASIM_JOBS    sweep worker threads (default hardware threads; 1 = the
//                 historical sequential behaviour)
//   VASIM_JSON    set to 0 to suppress BENCH_<name>.json result files
//
// All grid execution routes through core::SweepRunner: the benches enqueue
// (benchmark, scheme, VDD) jobs and read back submission-ordered, bitwise
// deterministic results, so tables are identical at any worker count.
// bench_paper renders the paper grid (core::paper_grid) as Table 1 and
// Figures 4/5/8/9; the other benches run their own smaller grids.
#ifndef VASIM_BENCH_BENCH_UTIL_HPP
#define VASIM_BENCH_BENCH_UTIL_HPP

#include <iostream>
#include <string>
#include <vector>

#include "src/common/env.hpp"
#include "src/common/table.hpp"
#include "src/core/runner.hpp"
#include "src/core/sweep.hpp"
#include "src/workload/profiles.hpp"

namespace vasim::bench {

inline core::RunnerConfig runner_config_from_env() {
  core::RunnerConfig rc;
  rc.instructions = env_u64("VASIM_INSTR", rc.instructions);
  rc.warmup = env_u64("VASIM_WARMUP", rc.warmup);
  return rc;
}

/// Prints the bench title and run lengths on stdout.  The worker count and
/// wall time are host-dependent, so emit_json notes them on stderr instead:
/// stdout is identical on any host and at any VASIM_JOBS.
inline void print_run_header(const std::string& what, const core::RunnerConfig& rc) {
  std::cout << "=== " << what << " ===\n"
            << "(vasim reproduction; " << rc.instructions << " measured instructions after "
            << rc.warmup << " warmup per run; override with VASIM_INSTR / VASIM_WARMUP / "
            << "VASIM_JOBS)\n\n";
}

/// Writes BENCH_<name>.json (unless VASIM_JSON=0) and notes the path, job
/// count, wall time and worker count on stderr.
inline void emit_json(const std::string& name, const core::SweepReport& report) {
  const std::string path = core::emit_sweep_json(name, report);
  if (!path.empty()) {
    std::cerr << "[" << path << ": " << report.jobs.size() << " jobs, "
              << TextTable::fmt(report.wall_ms, 0) << " ms on " << report.workers
              << " worker(s)]\n";
  }
}

}  // namespace vasim::bench

#endif  // VASIM_BENCH_BENCH_UTIL_HPP
