// Adaptive-clocking frontier (docs/adaptive.md): throughput against
// violation rate for the closed-loop DVFS policies and every static supply
// point, per benchmark and scheme.  "Throughput" is committed instructions
// per *nominal* cycle of wall time (it equals IPC when the period never
// moves), so static and adaptive points share one axis.
//
// The headline check: at the controller's violation budget, at least one
// adaptive policy must beat every static supply point on at least one cell;
// otherwise the subsystem earns its complexity nowhere and the bench exits 1.
// The record goes to BENCH_dvfs.json (suppressed by VASIM_JSON=0).
//
//   VASIM_INSTR / VASIM_WARMUP  run length  (default 30000 / 10000 here)
//   VASIM_JOBS                  sweep worker count
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench/bench_util.hpp"
#include "src/adapt/dvfs.hpp"

using namespace vasim;

int main() {
  core::RunnerConfig rc;
  rc.instructions = env_u64("VASIM_INSTR", 30'000);
  rc.warmup = env_u64("VASIM_WARMUP", 10'000);
  const core::SweepRunner sweeper(rc);
  bench::print_run_header("Adaptive clocking: DVFS policies vs the static supply frontier", rc);

  const char* benchmarks[] = {"bzip2", "sjeng"};
  const char* schemes[] = {"abs", "ep"};
  const char* policies[] = {"static", "reactive", "predictive"};
  const double vdds[] = {1.10, 1.04, 0.97};
  const double budget_pct = rc.dvfs.target_violation_pct;

  // One job per grid point; each carries its policy in its own config.
  std::vector<core::SweepJob> jobs;
  for (const char* bname : benchmarks) {
    const auto prof = workload::spec2006_profile(bname);
    for (const char* sname : schemes) {
      for (const char* pname : policies) {
        core::RunnerConfig prc = rc;
        prc.dvfs.policy = adapt::dvfs_policy_from_string(pname);
        for (const double vdd : vdds) {
          jobs.push_back({prof, *core::scheme_by_name(sname), vdd, prc});
        }
      }
    }
  }
  const core::SweepReport report = sweeper.run(jobs);
  // Static runs carry no dvfs summary: their period is pinned at nominal.
  const auto throughput = [](const core::RunResult& r) {
    return r.dvfs ? r.dvfs->throughput : r.ipc;
  };

  // Per (benchmark, scheme) cell: the best in-budget throughput of each
  // policy; "dominated" when an adaptive policy beats every static point.
  struct Cell {
    const char* benchmark;
    const char* scheme;
    double best[3] = {0.0, 0.0, 0.0};
    const char* dominated_by = nullptr;
  };
  std::vector<Cell> cells;
  std::size_t at = 0;
  for (const char* bname : benchmarks) {
    for (const char* sname : schemes) {
      Cell& c = cells.emplace_back(Cell{bname, sname});
      for (double& best : c.best) {
        for (std::size_t v = 0; v < std::size(vdds); ++v) {
          const core::RunResult& r = report.jobs[at++].result;
          if (r.fault_rate_pct > budget_pct) continue;  // over budget: off the frontier
          best = std::max(best, throughput(r));
        }
      }
      const int winner = c.best[2] >= c.best[1] ? 2 : 1;
      if (c.best[winner] > c.best[0]) c.dominated_by = policies[winner];
    }
  }

  TextTable t({"benchmark", "scheme", "best static", "best reactive", "best predictive",
               "dominated by"});
  std::size_t dominated = 0;
  for (const Cell& c : cells) {
    dominated += c.dominated_by != nullptr ? 1 : 0;
    t.add_row({c.benchmark, c.scheme, TextTable::fmt(c.best[0], 4), TextTable::fmt(c.best[1], 4),
               TextTable::fmt(c.best[2], 4), c.dominated_by != nullptr ? c.dominated_by : "-"});
  }
  std::cout << t.render() << "\n";
  if (dominated == 0) {
    std::fprintf(stderr, "BENCH_dvfs: no adaptive policy beat the static frontier on any cell\n");
    return 1;
  }
  std::printf("adaptive beats the static frontier on %zu/%zu cells at %.1f%% violation budget\n",
              dominated, cells.size(), budget_pct);

  if (env_u64("VASIM_JSON", 1) == 0) return 0;
  std::ofstream out("BENCH_dvfs.json");
  if (!out) return 0;
  char buf[512];
  out << "{\n"
      << "  \"bench\": \"dvfs\",\n"
      << "  \"schema_version\": 1,\n"
      << "  \"instr\": " << rc.instructions << ",\n"
      << "  \"warmup\": " << rc.warmup << ",\n";
  std::snprintf(buf, sizeof buf, "  \"violation_budget_pct\": %.3f,\n", budget_pct);
  out << buf << "  \"grid\": [";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const core::RunResult& r = report.jobs[i].result;
    const std::string policy(adapt::to_string(jobs[i].config->dvfs.policy));
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"benchmark\": \"%s\", \"scheme\": \"%s\", \"policy\": \"%s\", "
                  "\"vdd\": %.2f, \"ipc\": %.4f, \"throughput\": %.4f, "
                  "\"violation_pct\": %.4f, \"avg_period_permille\": %.1f, \"epochs\": %llu}",
                  i == 0 ? "" : ",", r.benchmark.c_str(), r.scheme.c_str(), policy.c_str(), r.vdd,
                  r.ipc, throughput(r), r.fault_rate_pct,
                  r.dvfs ? r.dvfs->avg_period_permille : 1000.0,
                  static_cast<unsigned long long>(r.dvfs ? r.dvfs->epochs : 0));
    out << buf;
  }
  out << "\n  ],\n  \"frontier\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"benchmark\": \"%s\", \"scheme\": \"%s\", "
                  "\"best_static\": %.4f, \"best_reactive\": %.4f, "
                  "\"best_predictive\": %.4f, \"dominated_by\": %s%s%s}",
                  i == 0 ? "" : ",", c.benchmark, c.scheme, c.best[0], c.best[1], c.best[2],
                  c.dominated_by == nullptr ? "null" : "\"",
                  c.dominated_by == nullptr ? "" : c.dominated_by,
                  c.dominated_by == nullptr ? "" : "\"");
    out << buf;
  }
  out << "\n  ],\n  \"frontier_dominated\": true\n}\n";
  std::cout << "[BENCH_dvfs.json: " << jobs.size() << " grid points]\n";
  return 0;
}
