// The three workloads.  Each is a fixed grid of SweepJobs; only the seed
// (mixed into every profile seed) and, for smoke tests, the run lengths vary.
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "perfbench/src/bench.hpp"
#include "src/common/rng.hpp"
#include "src/core/snapshot.hpp"
#include "src/workload/profiles.hpp"

namespace perfbench {
namespace {

using vasim::core::RunnerConfig;
using vasim::core::SweepJob;
using vasim::timing::SupplyPoints;
using vasim::workload::BenchmarkProfile;

BenchmarkProfile seeded(BenchmarkProfile p, u64 seed) {
  if (seed != kDefaultSeed) p.seed = vasim::hash_combine(p.seed, seed);
  return p;
}

std::string vdd_name(double vdd) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.2f", vdd);
  return buf;
}

void apply_lengths(RunnerConfig& rc, std::optional<u64> instructions, std::optional<u64> warmup) {
  if (instructions) rc.instructions = *instructions;
  if (warmup) rc.warmup = *warmup;
}

/// The `vasim sweep --bench all` grid: 12 profiles x {1.04, 0.97} V x
/// (fault-free + the five comparative schemes), default RunnerConfig lengths.
Workload paper_grid(u64 seed) {
  Workload w;
  w.name = "paper-grid";
  w.min_reps = 2;
  for (const BenchmarkProfile& base : vasim::workload::spec2006_profiles()) {
    const BenchmarkProfile p = seeded(base, seed);
    for (const double vdd : {SupplyPoints::kLowFault, SupplyPoints::kHighFault}) {
      w.jobs.push_back({p.name + "/fault-free/" + vdd_name(vdd), {p, std::nullopt, vdd, {}}});
      for (const vasim::cpu::SchemeConfig& s : vasim::core::comparative_schemes()) {
        w.jobs.push_back({p.name + "/" + s.name + "/" + vdd_name(vdd), {p, s, vdd, {}}});
      }
    }
  }
  return w;
}

/// bench_micro's scaling-grid core: ROB, LSQ and physical registers grow
/// with the issue queue.
vasim::cpu::CoreConfig scaled_core(int iq) {
  vasim::cpu::CoreConfig cfg;
  cfg.iq_entries = iq;
  cfg.rob_entries = std::max(cfg.rob_entries, iq);
  cfg.phys_regs = cfg.rob_entries + 64;
  cfg.lq_entries = std::max(cfg.lq_entries, cfg.rob_entries / 4);
  cfg.sq_entries = cfg.lq_entries;
  return cfg;
}

/// Fault-free only, two issue-queue sizes, a longer measured window: the
/// oracle and the TEP are never called.
Workload fault_free_wide(u64 seed, std::optional<u64> instructions, std::optional<u64> warmup) {
  Workload w;
  w.name = "fault-free-wide";
  w.min_reps = 10;
  w.config.instructions = 500'000;
  apply_lengths(w.config, instructions, warmup);
  for (const BenchmarkProfile& base : vasim::workload::spec2006_profiles()) {
    const BenchmarkProfile p = seeded(base, seed);
    for (const int iq : {32, 128}) {
      RunnerConfig rc = w.config;
      rc.core = scaled_core(iq);
      w.jobs.push_back({p.name + "/fault-free/iq" + std::to_string(iq),
                        {p, std::nullopt, SupplyPoints::kNominal, rc}});
    }
  }
  return w;
}

/// Warm-start reuse on: fault-free baselines at bench_voltage_sweep's five
/// supplies share one captured warmup per profile; adaptive-clock EP/ABS
/// jobs exercise query_adaptive and the state-delay model.
Workload warm_adaptive(u64 seed) {
  Workload w;
  w.name = "warm-adaptive";
  w.reuse_warmup = true;
  w.min_reps = 4;
  const double supplies[] = {1.10, 1.07, 1.04, 1.00, 0.97};
  for (const char* name : {"mcf", "bzip2", "sjeng", "povray"}) {
    const BenchmarkProfile p = seeded(vasim::workload::spec2006_profile(name), seed);
    for (const double vdd : supplies) {
      w.jobs.push_back({p.name + "/fault-free/" + vdd_name(vdd), {p, std::nullopt, vdd, {}}});
    }
    for (const char* scheme : {"ep", "abs"}) {
      for (const auto policy :
           {vasim::adapt::DvfsPolicy::kReactive, vasim::adapt::DvfsPolicy::kPredictive}) {
        for (const double vdd : {SupplyPoints::kHighFault, SupplyPoints::kLowFault}) {
          // The per-job config is filled in by make_workload once the
          // sweep-wide lengths are final.
          RunnerConfig rc;
          rc.dvfs.policy = policy;
          w.jobs.push_back({p.name + "/" + scheme + "/" +
                                std::string(vasim::adapt::to_string(policy)) + "/" + vdd_name(vdd),
                            {p, *vasim::core::scheme_by_name(scheme), vdd, rc}});
        }
      }
    }
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper-grid", "fault-free-wide",
                                                 "warm-adaptive"};
  return names;
}

Workload make_workload(const std::string& name, u64 seed, std::optional<u64> instructions,
                       std::optional<u64> warmup) {
  Workload w;
  if (name == "paper-grid") {
    w = paper_grid(seed);
  } else if (name == "fault-free-wide") {
    return fault_free_wide(seed, instructions, warmup);
  } else if (name == "warm-adaptive") {
    w = warm_adaptive(seed);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  apply_lengths(w.config, instructions, warmup);
  for (NamedJob& j : w.jobs) {
    if (j.job.config) {
      j.job.config->instructions = w.config.instructions;
      j.job.config->warmup = w.config.warmup;
    }
  }
  return w;
}

std::vector<SweepJob> sweep_jobs(const Workload& w) {
  std::vector<SweepJob> jobs;
  jobs.reserve(w.jobs.size());
  for (const NamedJob& j : w.jobs) jobs.push_back(j.job);
  return jobs;
}

const RunnerConfig& job_config(const Workload& w, const SweepJob& job) {
  return job.config ? *job.config : w.config;
}

std::vector<std::vector<std::size_t>> warm_groups(const Workload& w) {
  std::vector<std::vector<std::size_t>> out;
  if (!w.reuse_warmup) return out;
  std::map<std::string, std::vector<std::size_t>> by_key;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const SweepJob& j = w.jobs[i].job;
    const RunnerConfig& cfg = job_config(w, j);
    if (cfg.warmup == 0) continue;
    by_key[vasim::core::warmup_key_bytes(cfg, j.profile, j.scheme, j.vdd)].push_back(i);
  }
  for (auto& [key, members] : by_key) {
    if (members.size() >= 2) out.push_back(std::move(members));
  }
  return out;
}

}  // namespace perfbench
