// Parallel sweep engine: fans a grid of independent (benchmark, scheme,
// VDD) simulations out over a thread pool and returns results in submission
// order.
//
// Determinism guarantee: every job constructs its own TraceGenerator,
// FaultModel, predictor and Pipeline inside ExperimentRunner::run, and no
// state is shared between jobs, so the RunResults are bitwise identical
// regardless of worker count.  `VASIM_JOBS=1` reproduces the historical
// strictly-sequential behaviour; the default is hardware_concurrency().
//
// Results can be serialized to a machine-readable `BENCH_<name>.json` so the
// perf trajectory of the reproduction is diffable across PRs (schema in
// docs/sweep.md).
#ifndef VASIM_CORE_SWEEP_HPP
#define VASIM_CORE_SWEEP_HPP

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

/// One finished job: the simulation outcome plus its wall-clock cost and
/// scheduling info (start offset from sweep t0 and the pool worker that ran
/// it -- trace/progress metadata, deliberately excluded from the checksum).
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
  // Warm-start sharing accounting (all zero unless set_reuse_warmup(true)).
  std::size_t warmup_groups = 0;     ///< shared-warmup groups actually captured
  u64 warmup_cycles_simulated = 0;   ///< warmup cycles run once per shared group
  u64 warmup_cycles_saved = 0;       ///< warmup cycles the other members skipped
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
  /// whole grid has drained -- one bad job never deadlocks the pool.
  [[nodiscard]] SweepReport run(const std::vector<SweepJob>& jobs) const;

  /// Convenience: just the RunResults, submission order.
  [[nodiscard]] std::vector<RunResult> run_results(const std::vector<SweepJob>& jobs) const;

  [[nodiscard]] std::size_t workers() const { return workers_; }
  [[nodiscard]] const RunnerConfig& config() const { return cfg_; }

  /// Live `jobs done/total + ETA` line on stderr while the sweep runs.
  void set_progress(bool on) { progress_ = on; }

  /// Warm-start sharing: jobs whose warmup keys match (src/core/snapshot.hpp
  /// -- conservatively, everything that can influence machine state at the
  /// warmup boundary) run their warmup once per group and fork the
  /// measurement from the shared snapshot.  Results are bitwise identical to
  /// the straight-through sweep (tests/test_snap.cpp pins the checksum);
  /// only the SweepReport's warmup_* accounting and wall times change.
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
/// determinism witness used by tests and bench_sweep_speedup.
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
