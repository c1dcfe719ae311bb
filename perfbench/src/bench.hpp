// vasim benchmark program: shared declarations.
//
// One process runs one named workload (a fixed grid of simulation jobs) in
// one of two modes:
//   * untraced -- the end-to-end metrics: the whole grid is submitted at
//     once to core::SweepRunner (a closed batch on a fixed-size pool),
//     repeated until the time budget is spent, outputs checked every time;
//   * traced   -- the per-layer metrics: the same jobs driven through each
//     layer's public entry points with host-time spans around every call
//     into workload / timing / core / cpu / snap / adapt, checked to
//     reproduce the untraced results bit for bit.
// The last stdout line is a one-line JSON result; a fuller self-describing
// record goes to --record.
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/core/runner.hpp"
#include "src/core/sweep.hpp"

namespace perfbench {

using vasim::u32;
using vasim::u64;

/// The workload seed that leaves every profile unchanged; the pinned
/// per-job checksums belong to it.
inline constexpr u64 kDefaultSeed = 0;

/// Seed held out from tuning: a performance claim must also hold here.
inline constexpr u64 kHeldOutSeed = 20130602;

/// Upper bound on the pool size (the closed batch's client count).
inline constexpr std::size_t kMaxWorkers = 4;

struct Options {
  std::string workload;
  u64 seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 1;
  /// Run-length overrides (smoke tests); pins apply only when the lengths
  /// match the ones the pin file was written with.
  std::optional<u64> instructions;
  std::optional<u64> warmup;
  std::string pins_path;        ///< expected per-job checksums (optional)
  std::string write_pins_path;  ///< regenerate the pin file from this run
  std::string record_path;      ///< self-describing JSON record
  std::string spans_path;       ///< traced mode: Chrome-trace span dump
  std::string source_id = "unknown";  ///< git describe / source hash from run.py
};

/// One grid cell with a stable name ("mcf/abs/1.04") for pins and reports.
struct NamedJob {
  std::string name;
  vasim::core::SweepJob job;
};

struct Workload {
  std::string name;
  vasim::core::RunnerConfig config;  ///< sweep-wide config (jobs may override)
  bool reuse_warmup = false;
  std::vector<NamedJob> jobs;
  /// Repeats the untraced loop always makes, whatever the time budget.
  std::size_t min_reps = 1;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds the named workload's grid with `seed` mixed into every profile
/// seed (kDefaultSeed leaves the profiles unchanged).  Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, u64 seed,
                                     std::optional<u64> instructions, std::optional<u64> warmup);

[[nodiscard]] std::vector<vasim::core::SweepJob> sweep_jobs(const Workload& w);

[[nodiscard]] const vasim::core::RunnerConfig& job_config(const Workload& w,
                                                          const vasim::core::SweepJob& job);

/// Warm-start groups exactly as SweepRunner forms them: job indices sharing
/// one warmup, singleton groups dropped.  Empty unless reuse_warmup is set.
[[nodiscard]] std::vector<std::vector<std::size_t>> warm_groups(const Workload& w);

// ---- output checks (checks.cpp) --------------------------------------------

struct Pins {
  bool applicable = false;
  std::string status;  ///< "applied (<path>)" or why they do not apply
  std::map<std::string, u64> checksum;
};

/// Loads a pin file; the pins apply only when its workload, seed and run
/// lengths match `w`/`seed`.  A missing path or file means "not applicable".
[[nodiscard]] Pins load_pins(const std::string& path, const Workload& w, u64 seed);

void write_pins(const std::string& path, const Workload& w, u64 seed,
                const std::vector<vasim::core::RunResult>& results);

/// Failed-job tally; a job counts once however many checks it fails, and
/// every failure names its job.
struct Verdict {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failures;

  void fail_job(const std::string& job, const std::string& why);
};

/// Checks one grid's results (job order): committed == instructions (the
/// warmup boundary is pinned, so warmup + instructions were committed), the
/// CPI-stack invariant cpi.total() == cycles * commit_width, and -- when
/// they apply -- each job's core::result_checksum against its pin.
void check_results(const Workload& w, const std::vector<vasim::core::RunResult>& results,
                   const Pins& pins, Verdict& v);

// ---- reporting (report.cpp) ------------------------------------------------

struct Metric {
  std::string name;
  std::string layer;
  std::string unit;
  std::vector<double> samples;  ///< one per repeat; the value is their median
  std::string note;
  bool in_result = true;  ///< part of the last-line JSON result
};

[[nodiscard]] double median(std::vector<double> v);
/// Python statistics.quantiles(..., method="exclusive") quartile rule.
[[nodiscard]] double quantile(std::vector<double> v, double q);

struct RunOutcome {
  std::string mode;  ///< "untraced" / "traced"
  std::vector<Metric> metrics;
  Verdict verdict;
  /// Extra record fields, name -> raw JSON value.
  std::map<std::string, std::string> extra;
};

/// Prints the human-readable summary, writes the record when requested and
/// prints the one-line JSON result last.
void emit(const Options& o, const Workload& w, const RunOutcome& out);

[[nodiscard]] std::string json_string(const std::string& s);
[[nodiscard]] std::string json_number(double v);

// ---- the two modes -----------------------------------------------------------

[[nodiscard]] RunOutcome run_untraced(const Options& o, const Workload& w);
[[nodiscard]] RunOutcome run_traced(const Options& o, const Workload& w);

/// The results of a sweep, job order.
[[nodiscard]] std::vector<vasim::core::RunResult> results_of(const vasim::core::SweepReport& rep);

/// Host seconds to construct every job's simulator once, sequentially,
/// through the public constructors (traced.cpp owns the wiring).
[[nodiscard]] double construct_all(const Workload& w);

/// Share of EP's performance overhead removed by the best of ABS/FFS/CDS at
/// 1.04 V, computed as bench_fig4_5's headline; nullopt when `w` lacks the
/// cells.
[[nodiscard]] std::optional<double> fig4_share_pct(const Workload& w,
                                                   const std::vector<vasim::core::RunResult>& r);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

using Clock = std::chrono::steady_clock;
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP
