// Experiment runner: wires a workload profile, a supply point, a scheme and
// the pipeline together, and computes the overhead metrics the paper's
// tables and figures report.
#ifndef VASIM_CORE_RUNNER_HPP
#define VASIM_CORE_RUNNER_HPP

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/adapt/clock.hpp"
#include "src/adapt/dvfs.hpp"
#include "src/core/energy.hpp"
#include "src/core/predictors.hpp"
#include "src/core/tep.hpp"
#include "src/cpu/pipeline.hpp"
#include "src/workload/profiles.hpp"

namespace vasim::core {

/// Adaptive-clock outcome of one run (absent for static runs).  The scalar
/// inputs (dvfs.wall_units and friends) ride RunResult::stats and therefore
/// fold into sweep checksums; this block adds the derived summary and the
/// controller trajectory for reports.
struct DvfsSummary {
  std::string policy;            ///< "reactive" / "predictive"
  u64 epochs = 0;                ///< controller steps over the whole run
  u64 wall_units = 0;            ///< measured-window permille-cycles
  u32 period_final = 0;          ///< permille, at run end
  u32 period_lo = 0;             ///< permille, run-wide extremes
  u32 period_hi = 0;
  double avg_period_permille = 0.0;  ///< measured-window wall_units / cycles
  /// Measured-window committed * 1000 / wall_units: instructions per nominal
  /// cycle of wall time.  Equals IPC when the period never moves.
  double throughput = 0.0;
  /// Whole-run controller trajectory (warmup included).  Not folded into
  /// sweep_checksum (diagnostic series; the scalars above come from stats).
  std::vector<adapt::TrajectoryPoint> trajectory;
};

/// One simulation's outcome.
struct RunResult {
  std::string benchmark;
  std::string scheme;
  double vdd = timing::SupplyPoints::kNominal;
  u64 committed = 0;
  Cycle cycles = 0;
  /// Cycle of the warmup boundary the measured window starts at (0 without
  /// warmup).  Not folded into sweep_checksum (it places the window; it is
  /// not part of it).
  Cycle warmup_cycles = 0;
  double ipc = 0.0;
  double fault_rate_pct = 0.0;      ///< actual faults / committed * 100
  double replays = 0.0;
  double predictor_accuracy = 0.0;  ///< handled / actual (0 when no faults)
  EnergyReport energy;
  /// Per-cause commit-slot attribution of the measured window; the
  /// invariant cpi.total() == cycles * commit_width always holds.
  obs::CpiStack cpi;
  StatSet stats;
  /// Cycle timestamps sampled at every RunnerConfig::commit_trail_stride-th
  /// commit (whole run, warmup included).  Lets a diff pinpoint the first
  /// diverging execution window instead of just the final totals.  Not
  /// folded into sweep_checksum (diagnostic, not an identity).
  std::vector<Cycle> commit_trail;
  /// Invariant evaluations the semantics checker performed (0 when the
  /// checker was not attached); a run that "passes" with 0 checks is blind.
  u64 checker_checks = 0;
  /// Interval-sampled counter timeline (null unless
  /// RunnerConfig::timeline_interval was set).  Warm-started jobs begin
  /// their timeline at the fork point.  Not folded into sweep_checksum
  /// (diagnostic series, not an identity).
  std::shared_ptr<const obs::Timeline> timeline;
  /// Controller summary + trajectory for adaptive-clock runs; nullopt for
  /// static runs (whose results are bit-identical to pre-dvfs builds).
  std::optional<DvfsSummary> dvfs;
};

/// (performance %, energy-delay %) overhead tuple, the format of Table 1.
struct Overheads {
  double perf_pct = 0.0;
  double ed_pct = 0.0;
};

/// Overhead of `x` relative to `base` (same workload and instruction count).
Overheads overhead_vs(const RunResult& base, const RunResult& x);

/// A scheme's overhead as a share of Error Padding's (the normalization of
/// Figures 4/5/8/9).  A negative scheme overhead clamps to 0 (the scheme
/// beat fault-free execution outright, a scheduling-slack artifact; see
/// EXPERIMENTS.md), and an EP overhead <= 0 gives 0.
double normalized_to_ep(double scheme_pct, double ep_pct);

/// Which fault predictor drives the prediction-based schemes.
enum class PredictorKind {
  kTep,  ///< the paper's combined design (Section 2.1.1)
  kMre,  ///< Xin & Joseph's Most-Recent-Entry predictor [13]
  kTvp,  ///< Roy & Chakraborty's Timing Violation Predictor [12]
};

/// Runner configuration.
struct RunnerConfig {
  u64 instructions = 200'000;  ///< measured committed instructions per run
  u64 warmup = 150'000;        ///< committed instructions before measurement
  cpu::CoreConfig core;
  TepConfig tep;
  PredictorKind predictor = PredictorKind::kTep;
  EnergyParams energy;
  /// Attach a SemanticsChecker to every run and throw (with the checker's
  /// report) if any paper invariant is violated.  Requires hook-enabled
  /// builds (the default); attach fails loudly when compiled out.
  bool check_semantics = false;
  /// When non-zero, record the cycle at every N-th commit into
  /// RunResult::commit_trail (capped; see runner.cpp).
  u64 commit_trail_stride = 0;
  /// When non-zero, write a snapshot to `<snapshot_path><committed>.vsnap`
  /// at every `snapshot_interval`-th committed instruction (first cycle
  /// boundary at or past each multiple), in addition to the normal run.
  u64 snapshot_interval = 0;
  std::string snapshot_path = "snap-";
  /// When non-zero, attach an obs::Timeline sampling every N commits; the
  /// result lands in RunResult::timeline.  Zero (the default) leaves the
  /// run bitwise-identical to a build without the feature.
  u64 timeline_interval = 0;
  /// Live commits/s + ETA line on stderr while the run executes (the same
  /// printer the sweep engine uses).
  bool progress = false;
  /// When set, every run attaches a wall-time self-profiler and merges its
  /// snapshot here at result assembly.  Non-owning; must outlive the runs.
  obs::ProfilerHub* profiler_hub = nullptr;
  /// Adaptive clocking (src/adapt/, docs/adaptive.md).  kStatic (default)
  /// attaches nothing and is bitwise-identical to pre-dvfs behavior.
  /// Adaptive policies apply only to scheme runs (a fault model must be
  /// present to arbitrate violations); fault-free baselines stay static.
  /// The whole struct folds into the warmup key, so snapshots and shared
  /// warmups never cross policies.
  adapt::DvfsConfig dvfs;
};

// Defined in src/core/snapshot.hpp; callers of the snapshot API include it.
class RunSnapshot;

/// Executes simulations.  Stateless between runs; deterministic.  All three
/// entry points share one run loop (runner.cpp's drive()).  `scheme ==
/// nullopt` selects the fault-free baseline (no fault model, no predictors,
/// age policy), exactly like SweepJob::scheme.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(const RunnerConfig& cfg = {}) : cfg_(cfg) {}

  /// Runs one (benchmark, scheme, supply) combination.  `sinks` (e.g.
  /// trace writers; non-owning) watch the run's pipeline events without
  /// changing its result.  A non-null `source` (non-owning: a recorded
  /// trace, a program on the functional core) replaces the profile's
  /// generator as the instruction stream; the profile still names the job
  /// and calibrates its fault model.  Snapshots hold the generator's state,
  /// so a source with a non-zero snapshot_interval throws
  /// std::invalid_argument before anything is simulated.
  [[nodiscard]] RunResult run(const workload::BenchmarkProfile& profile,
                              const std::optional<cpu::SchemeConfig>& scheme, double vdd,
                              std::span<cpu::SchedHooks* const> sinks = {},
                              isa::InstructionSource* source = nullptr) const;

  // ---- snapshot / warm-start API (src/core/snapshot.hpp) -------------------

  /// Simulates up to the first cycle boundary where at least `at_committed`
  /// instructions have committed and returns the snapshot (the run is then
  /// abandoned -- this is the cheap warmup-capture path).  A point at or
  /// past the end of the run captures its final state.  The capture point
  /// is quantized to cycle boundaries, so resuming is bit-identical to
  /// having never paused.  Throws if the semantics checker (when enabled)
  /// has already failed at the capture point.
  [[nodiscard]] RunSnapshot capture(const workload::BenchmarkProfile& profile,
                                    const std::optional<cpu::SchemeConfig>& scheme, double vdd,
                                    u64 at_committed) const;

  /// Resumes a snapshot and runs the measurement to completion.  Workload,
  /// scheme and supply come from the snapshot's META; measurement-side
  /// settings (`instructions`, EnergyParams) come from this runner's config,
  /// whose warmup-relevant fields must match the snapshot's warmup key
  /// (snap::SnapshotError otherwise).  `vdd_override` is only legal for
  /// fault-free snapshots, where the supply affects energy accounting but
  /// not execution (one fault-free warmup can serve several supplies).
  [[nodiscard]] RunResult run_from(const RunSnapshot& snapshot,
                                   std::optional<double> vdd_override = std::nullopt) const;

  [[nodiscard]] const RunnerConfig& config() const { return cfg_; }

 private:
  RunnerConfig cfg_;
};

/// All comparative schemes of Section 5 in presentation order.  Built once
/// and cached (the schemes are immutable configuration); callers needing a
/// mutated variant copy the element.
const std::vector<cpu::SchemeConfig>& comparative_schemes();

/// Scheme lookup by table name ("fault-free", "razor", "ep", "abs", "ffs",
/// "cds"); nullopt for unknown names.
std::optional<cpu::SchemeConfig> scheme_by_name(const std::string& name);

}  // namespace vasim::core

#endif  // VASIM_CORE_RUNNER_HPP
