// Untraced mode: the end-to-end metrics.
//
// The whole grid is submitted to core::SweepRunner::run again and again
// until the time budget is spent; set-up samples (every job's simulator
// constructed over and over) run before and between the grid repeats.
// Every repeat's outputs are checked; timings are host time.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>

#include "perfbench/src/bench.hpp"

namespace perfbench {
namespace {

using vasim::core::RunResult;
using vasim::core::SweepReport;

constexpr int kSetupLead = 3;
constexpr double kSetupSampleS = 0.2;
constexpr std::size_t kMaxReps = 10'000;
constexpr double kPaperSharePct = 87.0;  // Figure 4 headline

/// Highest of a fixed percentile ladder with at least ten samples beyond it
/// in a run that makes only the minimum number of repeats, so the tail
/// names the same percentile in every run of a workload.
double tail_percentile(const Workload& w) {
  const double n = static_cast<double>(w.jobs.size() * w.min_reps);
  double best = 50.0;
  for (const double p : {75.0, 90.0, 95.0, 99.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double normalized_to_ep(double scheme_pct, double ep_pct) {
  if (ep_pct <= 0.0) return 0.0;
  return std::max(0.0, scheme_pct) / ep_pct;
}

}  // namespace

std::vector<RunResult> results_of(const SweepReport& rep) {
  std::vector<RunResult> out;
  out.reserve(rep.jobs.size());
  for (const vasim::core::SweepOutcome& o : rep.jobs) out.push_back(o.result);
  return out;
}

std::optional<double> fig4_share_pct(const Workload& w, const std::vector<RunResult>& r) {
  const std::string vdd = "/1.04";
  std::map<std::string, const RunResult*> by_name;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) by_name[w.jobs[i].name] = &r[i];
  std::array<double, 3> sum{};
  int n = 0;
  for (const auto& [name, res] : by_name) {
    const std::string suffix = "/fault-free" + vdd;
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string prof = name.substr(0, name.size() - suffix.size());
    const auto get = [&](const char* scheme) -> const RunResult* {
      const auto it = by_name.find(prof + "/" + scheme + vdd);
      return it == by_name.end() ? nullptr : it->second;
    };
    const RunResult* ep = get("ep");
    const std::array<const RunResult*, 3> ours = {get("abs"), get("ffs"), get("cds")};
    if (ep == nullptr || ours[0] == nullptr || ours[1] == nullptr || ours[2] == nullptr) continue;
    const double ep_pct = vasim::core::overhead_vs(*res, *ep).perf_pct;
    for (std::size_t i = 0; i < 3; ++i) {
      sum[i] += normalized_to_ep(vasim::core::overhead_vs(*res, *ours[i]).perf_pct, ep_pct);
    }
    ++n;
  }
  if (n == 0) return std::nullopt;
  double best = 1.0;
  for (const double s : sum) best = std::min(best, s / n);
  return (1.0 - best) * 100.0;
}

RunOutcome run_untraced(const Options& o, const Workload& w) {
  RunOutcome out;
  out.mode = "untraced";
  const Pins pins = load_pins(o.pins_path, w, o.seed);

  // Set-up: one untimed pass (allocator and caches warm), then samples, each
  // the mean of enough back-to-back passes to last about kSetupSampleS.
  // kSetupLead samples come first and one more follows every grid repeat, so
  // the median spans the whole run rather than one moment of host load.
  const double first = std::max(construct_all(w), 1e-6);
  const int passes = static_cast<int>(std::ceil(kSetupSampleS / first));
  std::vector<double> setup_s;
  const auto setup_sample = [&] {
    double sum = 0.0;
    for (int p = 0; p < passes; ++p) sum += construct_all(w);
    setup_s.push_back(sum / passes);
  };
  for (int k = 0; k < kSetupLead; ++k) setup_sample();

  vasim::core::SweepRunner sweeper(w.config, o.workers);
  sweeper.set_batch(1);
  sweeper.set_reuse_warmup(w.reuse_warmup);
  const std::vector<vasim::core::SweepJob> jobs = sweep_jobs(w);
  std::vector<bool> warm(w.jobs.size(), false);
  for (const auto& g : warm_groups(w)) {
    for (const std::size_t i : g) warm[i] = true;
  }

  std::vector<double> wall_s;
  std::vector<double> mips;
  std::vector<double> job_ms;
  std::optional<u64> checksum;
  std::optional<double> fig4;
  const auto t0 = Clock::now();
  for (std::size_t rep = 0; rep < kMaxReps; ++rep) {
    const double elapsed = seconds_since(t0);
    if (rep >= w.min_reps &&
        elapsed + elapsed / static_cast<double>(rep) > o.seconds) {
      break;  // the next repeat would overrun the budget
    }
    SweepReport report;
    try {
      report = sweeper.run(jobs);
    } catch (const std::exception& e) {
      // SweepRunner rethrows the first failure after draining the grid and
      // drops the report, so no job of this repeat can be trusted.
      out.verdict.attempted += w.jobs.size();
      for (const NamedJob& j : w.jobs) {
        out.verdict.fail_job(j.name, std::string("threw: ") + e.what());
      }
      continue;
    }
    const std::vector<RunResult> results = results_of(report);
    check_results(w, results, pins, out.verdict);
    const u64 sum = vasim::core::sweep_checksum(report);
    if (!checksum) {
      checksum = sum;
      if (!o.write_pins_path.empty()) write_pins(o.write_pins_path, w, o.seed, results);
      fig4 = fig4_share_pct(w, results);
    } else if (*checksum != sum) {
      out.verdict.fail_job(w.name, "sweep checksum changed between repeats");
    }

    wall_s.push_back(report.wall_ms / 1000.0);
    double instr = 0.0;
    double host_s = 0.0;
    for (std::size_t i = 0; i < report.jobs.size(); ++i) {
      const vasim::core::SweepOutcome& jo = report.jobs[i];
      // Only instructions this job simulated: a warm-started job resumes
      // after the shared warmup, whose capture is not part of any job.
      instr += static_cast<double>(jo.result.committed) +
               (warm[i] ? 0.0 : static_cast<double>(job_config(w, jobs[i]).warmup));
      host_s += jo.wall_ms / 1000.0;
      job_ms.push_back(jo.wall_ms);
    }
    mips.push_back(host_s > 0.0 ? instr / host_s / 1e6 : 0.0);
    setup_sample();
  }

  const double tail_p = tail_percentile(w);
  char tail_note[64];
  std::snprintf(tail_note, sizeof tail_note, "p%g of %zu job times", tail_p, job_ms.size());
  char setup_note[96];
  std::snprintf(setup_note, sizeof setup_note,
                "median of %zu samples, each the mean of %d set-ups of all %zu jobs",
                setup_s.size(), passes, w.jobs.size());
  out.metrics.push_back({"wall_s", "e2e", "s", wall_s, "submit grid to last result", true});
  out.metrics.push_back({"sim_mips", "e2e", "Minstr/s", mips,
                         "simulated instructions / summed job host seconds", true});
  out.metrics.push_back({"job_ms_p50", "e2e", "ms", {percentile(job_ms, 50.0)}, "", true});
  out.metrics.push_back(
      {"job_ms_tail", "e2e", "ms", {percentile(job_ms, tail_p)}, tail_note, true});
  out.metrics.push_back({"setup_s", "e2e", "s", setup_s, setup_note, true});
  out.metrics.push_back({"peak_rss_mb", "e2e", "MiB", {peak_rss_mib()}, "", true});
  const double failed_frac = out.verdict.attempted == 0
                                 ? 1.0
                                 : static_cast<double>(out.verdict.failed) /
                                       static_cast<double>(out.verdict.attempted);
  out.metrics.push_back({"failed_frac", "e2e", "ratio", {failed_frac},
                         "also the result's failed / attempted", false});
  if (fig4) {
    out.metrics.push_back({"fig4_err_pts", "e2e", "pct_pts", {std::fabs(kPaperSharePct - *fig4)},
                           "simulated; |87% - share of EP overhead removed at 1.04 V|", false});
    out.extra["fig4_share_pct"] = json_number(*fig4);
  }
  char hex[24];
  std::snprintf(hex, sizeof hex, "\"%016llx\"",
                static_cast<unsigned long long>(checksum.value_or(0)));
  out.extra["sweep_checksum"] = hex;
  out.extra["pins"] = json_string(pins.status);
  out.extra["grid_reps"] = std::to_string(wall_s.size());
  return out;
}

}  // namespace perfbench
