// Internal per-simulation context behind ExperimentRunner
// (src/core/runner.cpp).
//
// A JobContext owns everything one simulation needs -- trace generator,
// fault model, predictors, pipeline, optional semantics checker and commit
// trail -- and keeps construction, snapshot capture/restore and result
// assembly in one place.  runner.cpp's drive() is the one loop that steps
// it.
//
// This header is an implementation detail of vasim_core (namespace
// core::detail); it is not part of the public experiment API.
#ifndef VASIM_CORE_JOB_CONTEXT_HPP
#define VASIM_CORE_JOB_CONTEXT_HPP

#include <memory>
#include <optional>
#include <vector>

#include "src/check/semantics.hpp"
#include "src/core/runner.hpp"
#include "src/core/snapshot.hpp"
#include "src/workload/trace_generator.hpp"

namespace vasim::core::detail {

/// Samples the cycle counter at every `stride`-th commit (capped so huge
/// runs stay cheap); consumed by test_golden_equiv's divergence printer.
class CommitTrailObserver final : public cpu::SchedHooks {
 public:
  CommitTrailObserver(u64 stride, std::vector<Cycle>* out) : stride_(stride), out_(out) {}
  void on_committed(Cycle now, const cpu::InstState&) override {
    ++commits_;
    if (commits_ % stride_ == 0 && out_->size() < kMaxEntries) out_->push_back(now);
  }

  [[nodiscard]] u64 commits() const { return commits_; }
  /// Snapshot restore: the trail vector is refilled externally; the commit
  /// count must resume from the captured value for the stride phase to stay
  /// aligned.
  void set_commits(u64 commits) { commits_ = commits; }

 private:
  static constexpr std::size_t kMaxEntries = 256;
  u64 stride_;
  std::vector<Cycle>* out_;
  u64 commits_ = 0;
};

/// Everything one simulation owns, constructed in place.  Never moved: the
/// pipeline holds pointers into gen/fm/predictor.  `scheme_opt == nullopt`
/// selects the fault-free-baseline wiring (no fault model, no predictors).
/// A non-null `source` (non-owning) feeds the pipeline instead of `gen`.
struct JobContext {
  workload::TraceGenerator gen;  ///< also holds the job's profile
  double vdd;                    ///< the supply the job executes at
  std::optional<timing::FaultModel> fm;
  /// State-dependent delay model + adaptive clock domain; engaged only when
  /// RunnerConfig::dvfs names an adaptive policy and the job has a scheme
  /// (static jobs carry neither, keeping them bitwise-identical to pre-dvfs
  /// builds).
  std::optional<timing::StateDelayModel> state_delay;
  std::optional<adapt::ClockDomain> clock;
  std::optional<TimingErrorPredictor> tep;
  std::optional<MostRecentEntryPredictor> mre;
  std::optional<TimingViolationPredictor> tvp;
  cpu::FaultPredictor* predictor = nullptr;
  bool fault_free = false;
  cpu::SchemeConfig scheme;
  std::optional<cpu::Pipeline> pipe;
  std::optional<check::SemanticsChecker> checker;
  std::vector<Cycle> trail;
  std::optional<CommitTrailObserver> trail_obs;
  /// Interval sampler over pipe->registry(); shared so assemble_result can
  /// publish it into the RunResult without copying the columnar store.
  std::shared_ptr<obs::Timeline> timeline;
  std::optional<obs::Profiler> profiler;

  JobContext(const RunnerConfig& cfg, const workload::BenchmarkProfile& profile,
             const std::optional<cpu::SchemeConfig>& scheme_opt, double vdd,
             isa::InstructionSource* source = nullptr);

  JobContext(const JobContext&) = delete;
  JobContext& operator=(const JobContext&) = delete;
};

/// Where the measured window starts: the statistics, commit count and
/// cycle at the warmup boundary.
struct MeasurementBase {
  StatSet stats;
  u64 committed = 0;
  Cycle cycles = 0;
  bool captured = false;  ///< false until the run passes the warmup boundary
};

/// Assembles the full snapshot container from a job paused at a cycle
/// boundary.  Refuses to serialize a run whose checker already failed.
RunSnapshot make_snapshot(const RunnerConfig& cfg, const JobContext& ctx,
                          const MeasurementBase& base);

/// Restores every chunk into a freshly constructed JobContext.  Chunks with
/// unknown tags are ignored (forward compatibility); required chunks with a
/// newer version, or any payload/geometry mismatch, throw.
void restore_into(JobContext& ctx, const RunSnapshot& s);

/// Computes the RunResult, reported at supply `vdd`, from a finished
/// pipeline window.  Throws (with the checker's report) when the semantics
/// checker observed a violation.
RunResult assemble_result(const RunnerConfig& cfg, JobContext& ctx, double vdd,
                          cpu::PipelineResult&& pr);

}  // namespace vasim::core::detail

#endif  // VASIM_CORE_JOB_CONTEXT_HPP
