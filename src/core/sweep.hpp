// Parallel sweep engine: fans a grid of independent (benchmark, scheme,
// VDD) simulations out over a thread pool and returns results in submission
// order.
//
// Determinism guarantee: the sweep plans simulations, not jobs.  Jobs with
// equal simulation keys (src/core/snapshot.hpp: the warmup key plus the
// measured-window inputs) run once; each other job copies the leader's
// RunResult and sets its own supply and energy line, exactly what its own
// run would have computed.  That merges fault-free baselines at different
// supplies, which execute identically, and exact duplicate jobs.  Every
// simulation runs through its own ExperimentRunner, which builds a fresh
// TraceGenerator, FaultModel, predictor and Pipeline; simulations share no
// state, so the RunResults are bitwise identical to standalone runs
// regardless of worker count.  `VASIM_JOBS=1` runs everything sequentially on the calling
// thread; the default is hardware_concurrency().
//
// Results can be serialized to a machine-readable `BENCH_<name>.json` so the
// perf trajectory of the reproduction is diffable across PRs (schema in
// docs/sweep.md).
#ifndef VASIM_CORE_SWEEP_HPP
#define VASIM_CORE_SWEEP_HPP

#include <array>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/runner.hpp"

namespace vasim::core {

/// One cell of a sweep grid.  `scheme == nullopt` requests the fault-free
/// baseline at `vdd`; `config` overrides the sweep-wide RunnerConfig for
/// jobs that vary machine or predictor parameters (ablations).
struct SweepJob {
  workload::BenchmarkProfile profile;
  std::optional<cpu::SchemeConfig> scheme;
  double vdd = timing::SupplyPoints::kNominal;
  std::optional<RunnerConfig> config;
};

/// The supplies of the paper's faulty-execution grid, in submission order:
/// the low fault rate (1.04 V), then the high fault rate (0.97 V).
inline constexpr std::array<double, 2> kPaperSupplies = {timing::SupplyPoints::kLowFault,
                                                         timing::SupplyPoints::kHighFault};

/// The paper's evaluation grid (Section 5): profile-major, then each of
/// kPaperSupplies, then the fault-free baseline followed by
/// comparative_schemes().  `vasim sweep` and bench_paper both submit this
/// list, so equal run lengths give equal sweep checksums.
[[nodiscard]] std::vector<SweepJob> paper_grid(
    const std::vector<workload::BenchmarkProfile>& profiles);

/// One finished job: the simulation outcome plus its wall-clock cost and
/// scheduling info (start offset from sweep t0 and the pool worker that ran
/// it -- trace/progress metadata, deliberately excluded from the checksum).
/// A job that copied its leader's result costs only the copy.
struct SweepOutcome {
  RunResult result;
  double wall_ms = 0.0;
  double start_ms = 0.0;
  std::size_t worker = 0;
};

/// A whole sweep: outcomes in submission order plus aggregate timing.
struct SweepReport {
  std::vector<SweepOutcome> jobs;
  double wall_ms = 0.0;      ///< end-to-end sweep wall time
  std::size_t workers = 1;   ///< pool size the sweep ran with
  std::size_t simulations = 0;  ///< distinct simulations run (<= jobs.size())
  // Warm-start accounting (all zero unless set_reuse_warmup(true)).  Counted
  // over jobs: a group is every job sharing one warmup key, and each group
  // counts its leader's RunResult::warmup_cycles.  The numbers say how much
  // warmup such jobs have in common, not what the sweep skipped: that is
  // `simulations`.
  std::size_t warmup_groups = 0;     ///< groups of two or more jobs
  u64 warmup_cycles_simulated = 0;   ///< one warmup per group
  u64 warmup_cycles_saved = 0;       ///< one warmup per other member
};

/// Worker count resolution: `VASIM_JOBS` when set, else hardware threads.
/// Garbage values (non-numeric, 0, > 256) warn on stderr and fall back /
/// clamp instead of silently misbehaving (src/common/env.hpp, env_count).
[[nodiscard]] std::size_t sweep_workers_from_env();

/// Thread-pooled experiment fan-out.  Stateless between sweeps.
class SweepRunner {
 public:
  explicit SweepRunner(const RunnerConfig& cfg = {},
                       std::size_t workers = sweep_workers_from_env())
      : cfg_(cfg), workers_(workers == 0 ? 1 : workers) {}

  /// Runs every job; outcomes come back in submission order.  If any job
  /// threw, the first failure (by submission index) is rethrown after the
  /// whole grid has drained -- one bad job never deadlocks the pool.  A job
  /// that shares its simulation fails with its leader's error.
  [[nodiscard]] SweepReport run(const std::vector<SweepJob>& jobs) const;

  /// Convenience: just the RunResults, submission order.
  [[nodiscard]] std::vector<RunResult> run_results(const std::vector<SweepJob>& jobs) const;

  [[nodiscard]] std::size_t workers() const { return workers_; }
  [[nodiscard]] const RunnerConfig& config() const { return cfg_; }

  /// Live `jobs done/total + ETA` line on stderr while the sweep runs.
  void set_progress(bool on) { progress_ = on; }

  /// Turns on the SweepReport's warmup_* accounting over jobs whose warmup
  /// keys match (src/core/snapshot.hpp).  It changes no simulation: every
  /// simulation runs straight through either way, and the results and
  /// checksum are those of a plain sweep (tests/test_snap.cpp pins this).
  void set_reuse_warmup(bool on) { reuse_warmup_ = on; }

  /// Accepts only 1 and throws std::invalid_argument otherwise.  The
  /// lockstep batch engine is gone; this stays so that existing callers
  /// that pin the one-job-per-task path (perfbench does) keep compiling.
  void set_batch(std::size_t batch) {
    if (batch != 1) throw std::invalid_argument("SweepRunner: batch must be 1 (batching removed)");
  }

 private:
  RunnerConfig cfg_;
  std::size_t workers_;
  bool progress_ = false;
  bool reuse_warmup_ = false;
};

/// FNV-1a checksum over the order-sensitive, thread-count-invariant fields
/// of a result sequence (identities, counts, bit patterns of the doubles,
/// and all stat counters).  Equal checksums across worker counts are the
/// determinism witness used by the tests and by perfbench.
[[nodiscard]] u64 sweep_checksum(const std::vector<RunResult>& results);
[[nodiscard]] u64 sweep_checksum(const SweepReport& report);

/// Checksum of a single result (same field walk as sweep_checksum but no
/// sequence-length prefix).  This is the per-job identity the perfbench
/// pins compare against standalone runs.
[[nodiscard]] u64 result_checksum(const RunResult& result);

/// Serializes a sweep as JSON: run identity, per-job metrics and wall
/// times, aggregate wall time, worker count and checksum.
void write_sweep_json(std::ostream& os, const std::string& name, const SweepReport& report);

/// Writes `BENCH_<name>.json` in the working directory unless `VASIM_JSON=0`.
/// Returns the path written, or empty when disabled / on I/O failure.
std::string emit_sweep_json(const std::string& name, const SweepReport& report);

/// Serializes a sweep as a Chrome-trace-event JSON document (open in
/// https://ui.perfetto.dev or chrome://tracing): one complete span per job
/// on the thread row of the pool worker that ran it, 1 trace us = 1 wall us.
void write_chrome_trace(std::ostream& os, const SweepReport& report);

}  // namespace vasim::core

#endif  // VASIM_CORE_SWEEP_HPP
