#include "src/core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>

#include "src/common/env.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/progress.hpp"
#include "src/core/snapshot.hpp"
#include "src/obs/cpi.hpp"
#include "src/obs/timeline.hpp"
#include "src/obs/trace.hpp"

namespace vasim::core {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- checksum --------------------------------------------------------------

constexpr u64 kFnvOffset = 1469598103934665603ULL;
constexpr u64 kFnvPrime = 1099511628211ULL;

void fnv_bytes(u64& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(u64& h, u64 v) { fnv_bytes(h, &v, sizeof v); }

void fnv_f64(u64& h, double v) {
  u64 bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  fnv_u64(h, bits);
}

void fnv_str(u64& h, const std::string& s) {
  fnv_u64(h, s.size());
  fnv_bytes(h, s.data(), s.size());
}

void fnv_result(u64& h, const RunResult& r) {
  fnv_str(h, r.benchmark);
  fnv_str(h, r.scheme);
  fnv_f64(h, r.vdd);
  fnv_u64(h, r.committed);
  fnv_u64(h, r.cycles);
  fnv_f64(h, r.ipc);
  fnv_f64(h, r.fault_rate_pct);
  fnv_f64(h, r.replays);
  fnv_f64(h, r.predictor_accuracy);
  fnv_f64(h, r.energy.dynamic_nj);
  fnv_f64(h, r.energy.leakage_nj);
  fnv_f64(h, r.energy.edp);
  for (const auto& [name, count] : r.stats.counters()) {
    fnv_str(h, name);
    fnv_u64(h, count);
  }
  for (const auto& [name, value] : r.stats.scalars()) {
    fnv_str(h, name);
    fnv_f64(h, value);
  }
}

// ---- JSON ------------------------------------------------------------------

std::string json_f64(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::size_t sweep_workers_from_env() { return ThreadPool::default_worker_count(); }

SweepReport SweepRunner::run(const std::vector<SweepJob>& jobs) const {
  SweepReport report;
  report.workers = workers_;
  report.jobs.resize(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());

  const auto t0 = Clock::now();

  // Trace/progress bookkeeping.  Worker ids are assigned on first encounter
  // (pool threads have no public index); done/start/worker never feed the
  // checksum, so none of this perturbs determinism.
  std::mutex meta_mu;
  std::map<std::thread::id, std::size_t> worker_ids;
  std::atomic<std::size_t> done{0};

  const auto worker_of = [&](std::thread::id tid) {
    std::lock_guard<std::mutex> lock(meta_mu);
    return worker_ids.emplace(tid, worker_ids.size()).first->second;
  };
  // The shared ProgressMeter (src/core/progress.hpp) serves sweeps and
  // single runs alike; it rate-limits and locks internally.
  std::optional<ProgressMeter> meter;
  if (progress_) meter.emplace("sweep", jobs.size(), "jobs");
  const auto note_progress = [&] {
    const std::size_t d = ++done;
    if (!meter) return;
    if (d == jobs.size()) {
      meter->finish(d);
    } else {
      meter->update(d);
    }
  };

  // Warm-start grouping (set_reuse_warmup): jobs whose conservative warmup
  // keys match simulate the warmup once and fork the measurement from the
  // shared snapshot.  Singleton groups are dropped -- running straight
  // through is cheaper than capture + restore for a job with no siblings.
  struct Group {
    std::vector<std::size_t> members;
    std::optional<RunSnapshot> snap;
    std::exception_ptr error;
  };
  std::map<std::string, Group> groups;
  std::vector<Group*> shared(jobs.size(), nullptr);
  if (reuse_warmup_) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const RunnerConfig& cfg = jobs[i].config ? *jobs[i].config : cfg_;
      if (cfg.warmup == 0) continue;
      groups[warmup_key_bytes(cfg, jobs[i].profile, jobs[i].scheme, jobs[i].vdd)]
          .members.push_back(i);
    }
    for (auto it = groups.begin(); it != groups.end();) {
      if (it->second.members.size() < 2) {
        it = groups.erase(it);
      } else {
        for (const std::size_t i : it->second.members) shared[i] = &it->second;
        ++it;
      }
    }
  }

  const auto capture_group = [&](Group& g) {
    const SweepJob& job = jobs[g.members.front()];
    const RunnerConfig& cfg = job.config ? *job.config : cfg_;
    try {
      const ExperimentRunner runner(cfg);
      g.snap.emplace(runner.capture(job.profile, job.scheme, job.vdd, cfg.warmup));
    } catch (...) {
      // Every member inherits the failure: a group whose warmup cannot be
      // captured must not half-run with some members silently falling back.
      g.error = std::current_exception();
    }
  };

  const auto run_one = [&](std::size_t index, SweepOutcome& out) {
    const SweepJob& job = jobs[index];
    const auto j0 = Clock::now();
    out.start_ms = ms_between(t0, j0);
    out.worker = worker_of(std::this_thread::get_id());
    const ExperimentRunner runner(job.config ? *job.config : cfg_);
    const Group* g = shared[index];
    if (g != nullptr) {
      if (g->error) std::rethrow_exception(g->error);
      // job.vdd only diverges from the snapshot's within fault-free groups,
      // where the supply does not influence execution (see warmup_key).
      out.result = runner.run_from(*g->snap, job.vdd);
    } else {
      out.result = job.scheme ? runner.run(job.profile, *job.scheme, job.vdd)
                              : runner.run_fault_free(job.profile, job.vdd);
    }
    out.wall_ms = ms_between(j0, Clock::now());
    note_progress();
  };

  if (workers_ <= 1) {
    // Sequential path: exactly the historical bench behaviour, no pool.
    for (auto& [key, g] : groups) capture_group(g);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      try {
        run_one(i, report.jobs[i]);
      } catch (...) {
        errors[i] = std::current_exception();
        note_progress();
      }
    }
  } else {
    ThreadPool pool(workers_);
    // Phase A: shared warmups (a barrier keeps the dependency trivial --
    // measurement jobs only ever read completed snapshots).
    for (auto& [key, g] : groups) {
      Group* gp = &g;
      pool.submit([&capture_group, gp] { capture_group(*gp); });
    }
    pool.wait_idle();
    // Phase B: every job, forked or direct.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      pool.submit([&, i] {
        try {
          run_one(i, report.jobs[i]);
        } catch (...) {
          errors[i] = std::current_exception();
          note_progress();
        }
      });
    }
    pool.wait_idle();
  }
  report.wall_ms = ms_between(t0, Clock::now());

  for (const auto& [key, g] : groups) {
    if (!g.snap) continue;
    ++report.warmup_groups;
    report.warmup_cycles_simulated += g.snap->meta().captured_cycle;
    report.warmup_cycles_saved +=
        g.snap->meta().captured_cycle * static_cast<u64>(g.members.size() - 1);
  }

  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return report;
}

std::vector<RunResult> SweepRunner::run_results(const std::vector<SweepJob>& jobs) const {
  SweepReport report = run(jobs);
  std::vector<RunResult> out;
  out.reserve(report.jobs.size());
  for (SweepOutcome& j : report.jobs) out.push_back(std::move(j.result));
  return out;
}

u64 sweep_checksum(const std::vector<RunResult>& results) {
  u64 h = kFnvOffset;
  fnv_u64(h, results.size());
  for (const RunResult& r : results) fnv_result(h, r);
  return h;
}

u64 sweep_checksum(const SweepReport& report) {
  u64 h = kFnvOffset;
  fnv_u64(h, report.jobs.size());
  for (const SweepOutcome& j : report.jobs) fnv_result(h, j.result);
  return h;
}

u64 result_checksum(const RunResult& result) {
  u64 h = kFnvOffset;
  fnv_result(h, result);
  return h;
}

void write_sweep_json(std::ostream& os, const std::string& name, const SweepReport& report) {
  // Schema 5: adds the per-job "dvfs" block (controller summary plus the
  // period trajectory) on adaptive-clock jobs.  Schema 4 added per-job
  // "percentiles" and "timeline".  None of these feed the checksum, but the
  // dvfs scalars mirror checksummed dvfs.* stats.
  os << "{\n"
     << "  \"bench\": " << obs::json_quote(name) << ",\n"
     << "  \"schema_version\": 5,\n"
     << "  \"workers\": " << report.workers << ",\n"
     << "  \"wall_ms\": " << json_f64(report.wall_ms) << ",\n"
     << "  \"warmup_groups\": " << report.warmup_groups << ",\n"
     << "  \"warmup_cycles_simulated\": " << report.warmup_cycles_simulated << ",\n"
     << "  \"warmup_cycles_saved\": " << report.warmup_cycles_saved << ",\n"
     << "  \"checksum\": \"" << std::hex << sweep_checksum(report) << std::dec << "\",\n"
     << "  \"jobs\": [";
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const SweepOutcome& j = report.jobs[i];
    const RunResult& r = j.result;
    os << (i == 0 ? "\n" : ",\n")
       << "    {\"benchmark\": " << obs::json_quote(r.benchmark)
       << ", \"scheme\": " << obs::json_quote(r.scheme)
       << ", \"vdd\": " << json_f64(r.vdd)
       << ", \"committed\": " << r.committed
       << ", \"cycles\": " << r.cycles
       << ", \"ipc\": " << json_f64(r.ipc)
       << ", \"fault_rate_pct\": " << json_f64(r.fault_rate_pct)
       << ", \"replays\": " << json_f64(r.replays)
       << ", \"predictor_accuracy\": " << json_f64(r.predictor_accuracy)
       << ", \"energy_nj\": " << json_f64(r.energy.total_nj())
       << ", \"edp\": " << json_f64(r.energy.edp)
       << ", \"cpi\": {";
    for (int c = 0; c < obs::kNumCpiCauses; ++c) {
      os << (c == 0 ? "" : ", ") << "\"" << obs::to_string(static_cast<obs::CpiCause>(c))
         << "\": " << r.cpi.slots[static_cast<std::size_t>(c)];
    }
    os << "}";
    // Histogram percentile exports group by prefix: "<h>.p50/.p95/.p99"
    // scalars become {"<h>": {"p50": ..., "p95": ..., "p99": ...}}.
    bool any_pct = false;
    for (const auto& [sname, value] : r.stats.scalars()) {
      constexpr std::string_view kSuffix = ".p50";
      if (sname.size() <= kSuffix.size() ||
          sname.compare(sname.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) {
        continue;
      }
      const std::string base_name = sname.substr(0, sname.size() - kSuffix.size());
      os << (any_pct ? ", " : ", \"percentiles\": {") << obs::json_quote(base_name)
         << ": {\"p50\": " << json_f64(value)
         << ", \"p95\": " << json_f64(r.stats.scalar(base_name + ".p95"))
         << ", \"p99\": " << json_f64(r.stats.scalar(base_name + ".p99")) << "}";
      any_pct = true;
    }
    if (any_pct) os << "}";
    if (r.timeline) {
      os << ", \"timeline\": ";
      r.timeline->write_json(os, /*include_counters=*/false);
    }
    if (r.dvfs) {
      const DvfsSummary& d = *r.dvfs;
      os << ", \"dvfs\": {\"policy\": " << obs::json_quote(d.policy)
         << ", \"epochs\": " << d.epochs
         << ", \"wall_units\": " << d.wall_units
         << ", \"period_final\": " << d.period_final
         << ", \"period_lo\": " << d.period_lo
         << ", \"period_hi\": " << d.period_hi
         << ", \"avg_period_permille\": " << json_f64(d.avg_period_permille)
         << ", \"throughput\": " << json_f64(d.throughput)
         << ", \"trajectory\": [";
      for (std::size_t t = 0; t < d.trajectory.size(); ++t) {
        const adapt::TrajectoryPoint& p = d.trajectory[t];
        os << (t == 0 ? "" : ", ") << "[" << p.committed << ", " << p.period_permille << ", "
           << p.violations << "]";
      }
      os << "]}";
    }
    os << ", \"wall_ms\": " << json_f64(j.wall_ms) << "}";
  }
  os << "\n  ]\n}\n";
}

std::string emit_sweep_json(const std::string& name, const SweepReport& report) {
  if (env_u64("VASIM_JSON", 1) == 0) return {};
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) return {};
  write_sweep_json(out, name, report);
  return out ? path : std::string{};
}

void write_chrome_trace(std::ostream& os, const SweepReport& report) {
  obs::ChromeTraceWriter trace(&os);
  constexpr u64 kPid = 0;
  trace.process_name(kPid, "vasim sweep");
  std::size_t max_worker = 0;
  for (const SweepOutcome& j : report.jobs) max_worker = std::max(max_worker, j.worker);
  for (std::size_t w = 0; w <= max_worker; ++w) {
    trace.thread_name(kPid, w, "worker " + std::to_string(w));
  }
  // Per-job timelines (when the sweep ran with a timeline interval) render
  // as counter tracks on a second process row, one thread per job, with the
  // window grid mapped onto the job's wall-clock span so the series align
  // under the job spans above.
  constexpr u64 kTimelinePid = 1;
  bool any_timeline = false;
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const SweepOutcome& j = report.jobs[i];
    const RunResult& r = j.result;
    char vdd[32];
    std::snprintf(vdd, sizeof vdd, "%g", r.vdd);
    const std::string label = r.benchmark + "/" + r.scheme + "@" + vdd;
    trace.complete_event(label, "job", kPid, j.worker, j.start_ms * 1000.0,
                         j.wall_ms * 1000.0,
                         {{"ipc", std::to_string(r.ipc)},
                          {"committed", std::to_string(r.committed)},
                          {"cycles", std::to_string(r.cycles)}});
    if (r.timeline != nullptr && r.timeline->windows() > 0) {
      if (!any_timeline) {
        trace.process_name(kTimelinePid, "vasim timelines");
        any_timeline = true;
      }
      trace.thread_name(kTimelinePid, i, label);
      // Map the sampled cycle span (fork point .. last window) onto the
      // job's wall span; warm-started timelines begin at non-zero cycles.
      const auto last_cycle =
          static_cast<double>(r.timeline->cycle_end(r.timeline->windows() - 1));
      const auto base_cycle =
          static_cast<double>(r.timeline->cycle_end(0) - r.timeline->cycle_delta(0));
      const double span = last_cycle - base_cycle;
      const double us_per_cycle = span > 0.0 ? j.wall_ms * 1000.0 / span : 0.0;
      r.timeline->append_counter_tracks(trace, kTimelinePid, i, label + " ",
                                        j.start_ms * 1000.0 - base_cycle * us_per_cycle,
                                        us_per_cycle);
    }
  }
  trace.finish();
}

}  // namespace vasim::core
