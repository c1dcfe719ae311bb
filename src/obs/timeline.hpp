// Interval-sampled timeline telemetry: per-window deltas of every registered
// Registry counter, captured every K commits.
//
// The DAC-2013 schemes exploit *phase* behaviour -- timing violations cluster
// in program regions that exercise critical paths -- but end-of-run StatSets
// flatten that structure away.  A Timeline attaches to a pipeline and, at the
// first cycle boundary where each K-commit threshold is crossed, snapshots
// the delta of every registry counter (plus the cycle/commit deltas) into a
// preallocated columnar store.  Derived per-window series (IPC, violation
// rate, predictor accuracy, recovery overhead, the 9-cause CPI stack) are
// computed at export time, never in the sampling hot path.
//
// Sampling is zero-alloc in steady state: the store is reserved up front
// from a capacity hint (windows grow geometrically only if the hint was
// short) and sample() is a fixed number of subtractions and appends into
// reserved storage.  bench_micro records the measured MIPS cost in
// BENCH_timeline.json; with no timeline attached the per-cycle cost is one
// predictable branch, and results are bitwise unchanged.
//
// Window accounting contract (what the reconciliation tests pin): windows
// partition the sampled run exactly -- for every tracked counter, the sum of
// its per-window deltas equals the end-of-run counter minus the baseline at
// attach (or re-baseline) time.  mark_measurement() force-cuts a window at
// the warmup boundary so the measured windows sum exactly to the measured
// StatSet; rebaseline() restarts the accounting at a warm-start fork point.
#ifndef VASIM_OBS_TIMELINE_HPP
#define VASIM_OBS_TIMELINE_HPP

#include <array>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.hpp"
#include "src/obs/cpi.hpp"
#include "src/obs/registry.hpp"

namespace vasim::obs {

class ChromeTraceWriter;

/// One pipeline's interval-sampled counter timeline.
class Timeline {
 public:
  struct Config {
    u64 interval = 10'000;         ///< commits per window (the sampling grain)
    std::size_t capacity_hint = 64;  ///< windows preallocated (zero-alloc budget)
    /// Relative IPC change between consecutive windows that marks a phase
    /// boundary (the delta-threshold phase-change marker).
    double phase_delta = 0.25;
  };

  /// `registry` may be null (e.g. the in-order core, which has no registry):
  /// only the cycle/commit columns -- and therefore the IPC series -- exist.
  /// The registry must outlive the timeline and must have finished
  /// registering counters (the column set is frozen here).
  Timeline(const Config& cfg, const Registry* registry);

  /// Closes the window [last sample, now) and snapshots every counter delta.
  /// The pipeline calls this at the first cycle boundary at or past each
  /// K-commit threshold.  A call with nothing elapsed is a no-op.
  void sample(Cycle now, u64 committed);

  /// Forces a window cut at the measurement (warmup) boundary and marks all
  /// later windows as measured; per-window sums over the measured windows
  /// then reconcile exactly with the measured-window StatSet.
  void mark_measurement(Cycle now, u64 committed);

  /// Warm-start fork: restarts the accounting at the restored machine state
  /// (baseline = current counter values; no window is emitted).  Only legal
  /// while the timeline is still empty.
  void rebaseline(Cycle now, u64 committed);

  /// Flushes the final partial window.  Idempotent; assemble_result calls it
  /// before the timeline is published into the RunResult.
  void finalize(Cycle now, u64 committed);

  // ---- store geometry --------------------------------------------------------
  [[nodiscard]] u64 interval() const { return interval_; }
  [[nodiscard]] std::size_t windows() const { return cycle_end_.size(); }
  /// Index of the first measured (post-warmup) window; 0 when the whole
  /// timeline is measured (warm-started jobs, warmup-free runs).
  [[nodiscard]] std::size_t measurement_start() const { return measurement_start_; }
  [[nodiscard]] std::size_t num_counters() const { return names_.size(); }
  [[nodiscard]] const std::string& counter_name(std::size_t c) const { return names_[c]; }

  // ---- per-window raw columns ------------------------------------------------
  [[nodiscard]] Cycle cycle_end(std::size_t w) const { return cycle_end_[w]; }
  [[nodiscard]] u64 committed_end(std::size_t w) const { return committed_end_[w]; }
  [[nodiscard]] Cycle cycle_delta(std::size_t w) const {
    return cycle_end_[w] - (w == 0 ? base_cycle_ : cycle_end_[w - 1]);
  }
  [[nodiscard]] u64 committed_delta(std::size_t w) const {
    return committed_end_[w] - (w == 0 ? base_committed_ : committed_end_[w - 1]);
  }
  [[nodiscard]] u64 delta(std::size_t w, std::size_t c) const {
    return deltas_[w * names_.size() + c];
  }
  /// Counter delta by name; 0 when the name is not a tracked column.
  [[nodiscard]] u64 delta_of(std::size_t w, std::string_view name) const;
  [[nodiscard]] bool phase_change(std::size_t w) const { return phase_[w] != 0; }

  // ---- derived per-window series ---------------------------------------------
  [[nodiscard]] double ipc(std::size_t w) const;
  /// Actual timing faults per committed instruction.
  [[nodiscard]] double violation_rate(std::size_t w) const;
  /// handled / actual faults (0 when the window saw no faults).
  [[nodiscard]] double predictor_accuracy(std::size_t w) const;
  /// Fraction of the window's commit slots lost to recovery (EP stalls,
  /// replays, squash refetch) -- the recovery-cycle overhead series.
  [[nodiscard]] double recovery_overhead(std::size_t w) const;
  /// The window's 9-cause CPI stack (slot deltas).
  [[nodiscard]] CpiStack cpi_window(std::size_t w) const;
  /// Column indices of the per-stage "fault.stage.*" counters (per-FU
  /// violation-rate series); empty when no registry was attached.
  [[nodiscard]] const std::vector<std::size_t>& stage_columns() const { return stage_cols_; }
  /// True when the run carried an adaptive clock ("dvfs.wall_units" column).
  [[nodiscard]] bool has_period_series() const { return col_wall_units_ >= 0; }
  /// Average clock period over the window in permille of nominal
  /// (Δwall_units / Δcycles); 0 when no adaptive clock was attached.
  [[nodiscard]] double period_permille(std::size_t w) const;

  // ---- export ----------------------------------------------------------------
  /// One JSON object: {"kind": "vasim_timeline", ...} with the raw columns
  /// and every derived series.  `include_counters` drops the raw per-counter
  /// delta matrix (used when embedding per-job timelines in the sweep JSON).
  void write_json(std::ostream& os, bool include_counters = true) const;
  /// One row per window: index, boundaries, phase flag, derived series, then
  /// every counter delta column.
  void write_csv(std::ostream& os) const;

  /// Appends Perfetto counter tracks ("ph":"C") for the derived series so
  /// they render beside existing spans.  Window w lands at
  /// ts0_us + cycle_end(w) * us_per_cycle.
  void append_counter_tracks(ChromeTraceWriter& trace, u64 pid, u64 tid,
                             const std::string& prefix, double ts0_us,
                             double us_per_cycle) const;

 private:
  void reserve(std::size_t windows);
  void push_window(Cycle now, u64 committed);

  const Registry* reg_ = nullptr;
  u64 interval_ = 10'000;
  double phase_delta_ = 0.25;
  bool finalized_ = false;

  std::vector<std::string> names_;
  std::vector<u64> prev_;   ///< counter values at the last window boundary
  Cycle last_cycle_ = 0;
  u64 last_committed_ = 0;
  Cycle base_cycle_ = 0;    ///< accounting origin (0, or the rebaseline point)
  u64 base_committed_ = 0;

  // Columnar store: parallel per-window arrays plus one row-major delta
  // matrix (windows x counters), all reserved up front.
  std::vector<Cycle> cycle_end_;
  std::vector<u64> committed_end_;
  std::vector<u8> phase_;
  std::vector<u64> deltas_;
  std::size_t measurement_start_ = 0;

  // Column indices resolved once at construction; -1 when absent.
  int col_fault_actual_ = -1;
  int col_fault_handled_ = -1;
  int col_wall_units_ = -1;
  std::vector<std::size_t> stage_cols_;
  std::array<int, kNumCpiCauses> col_cpi_{};
};

}  // namespace vasim::obs

#endif  // VASIM_OBS_TIMELINE_HPP
