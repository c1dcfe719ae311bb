#include "src/core/runner.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/core/job_context.hpp"
#include "src/core/progress.hpp"
#include "src/core/snapshot.hpp"

namespace vasim::core {
namespace {

using detail::JobContext;

/// Optional mid-run snapshot request for drive_run.
struct CaptureSpec {
  u64 at = 0;
  bool stop_after = false;  ///< abandon the run once captured (warmup-only)
  bool done = false;
  RunSnapshot snapshot;
};

/// The run loop, phase-structured exactly like Pipeline::run (same commit
/// limits at the same boundaries), with snapshot checks between cycles.
/// Capture points quantize to the first cycle boundary at or past the
/// requested commit count, which is why continuation is bit-identical.
void drive_run(const RunnerConfig& cfg, JobContext& ctx,
               const workload::BenchmarkProfile& profile, double vdd, CaptureSpec* cap,
               StatSet& base, u64& base_committed, Cycle& base_cycles) {
  cpu::Pipeline& pipe = *ctx.pipe;
  bool base_captured = false;
  u64 next_periodic = cfg.snapshot_interval;
  std::optional<ProgressMeter> meter;
  if (cfg.progress) meter.emplace("run", cfg.warmup + cfg.instructions, "commits");
  u64 progress_tick = 0;

  // Returns false when the driver should stop (warmup-only capture done).
  const auto boundary = [&]() -> bool {
    // The meter rate-limits its own printing; the tick mask just keeps the
    // steady-clock read off most cycles.
    if (meter && (++progress_tick & 0x1FFF) == 0) meter->update(pipe.committed());
    if (cap != nullptr && !cap->done && pipe.committed() >= cap->at) {
      cap->snapshot = detail::make_snapshot(cfg, ctx, profile, vdd, base, base_committed,
                                            base_cycles, base_captured);
      cap->done = true;
      if (cap->stop_after) return false;
    }
    if (cfg.snapshot_interval > 0) {
      while (pipe.committed() >= next_periodic) {
        detail::make_snapshot(cfg, ctx, profile, vdd, base, base_committed, base_cycles,
                              base_captured)
            .write_file(cfg.snapshot_path + std::to_string(pipe.committed()) + ".vsnap");
        next_periodic += cfg.snapshot_interval;
      }
    }
    return true;
  };

  if (cfg.warmup > 0) {
    pipe.set_commit_limit(cfg.warmup);
    while (pipe.committed() < cfg.warmup) {
      if (!boundary()) return;
      if (!pipe.step()) break;
    }
    // A capture at exactly the warmup boundary lands here, *before* the
    // base is read: the resuming side re-derives the identical base from
    // the restored state, so the snapshot stays measurement-agnostic.
    if (!boundary()) return;
    base = pipe.snapshot_stats();
    base_committed = pipe.committed();
    base_cycles = pipe.now();
    base_captured = true;
    // Cut the timeline exactly at the measurement base so the measured
    // windows sum to the measured StatSet, counter for counter.
    if (ctx.timeline) ctx.timeline->mark_measurement(pipe.now(), pipe.committed());
  }

  const u64 target = cfg.warmup + cfg.instructions;
  pipe.set_commit_limit(target);
  while (pipe.committed() < target) {
    if (!boundary()) return;
    if (!pipe.step()) break;
  }
  // Capture points at or past the end resolve to the final state: the run
  // cannot commit past `target` (and may fall short if the source drained),
  // so a still-pending request fires here unconditionally.
  if (cap != nullptr && !cap->done) cap->at = pipe.committed();
  boundary();
  if (meter) meter->finish(pipe.committed());
}

RunResult run_job(const RunnerConfig& cfg, const workload::BenchmarkProfile& profile,
                  const std::optional<cpu::SchemeConfig>& scheme, double vdd, CaptureSpec* cap) {
  JobContext ctx(cfg, profile, scheme, vdd);
  StatSet base;
  u64 base_committed = 0;
  Cycle base_cycles = 0;
  drive_run(cfg, ctx, profile, vdd, cap, base, base_committed, base_cycles);
  cpu::PipelineResult pr = ctx.pipe->result_window(base, base_committed, base_cycles);
  return detail::assemble_result(cfg, ctx, profile, vdd, std::move(pr));
}

}  // namespace

Overheads overhead_vs(const RunResult& base, const RunResult& x) {
  Overheads o;
  if (base.ipc > 0.0 && x.ipc > 0.0) o.perf_pct = (base.ipc / x.ipc - 1.0) * 100.0;
  if (base.energy.edp > 0.0) o.ed_pct = (x.energy.edp / base.energy.edp - 1.0) * 100.0;
  return o;
}

double normalized_to_ep(double scheme_pct, double ep_pct) {
  if (ep_pct <= 0.0) return 0.0;
  return std::max(0.0, scheme_pct) / ep_pct;
}

RunResult ExperimentRunner::run(const workload::BenchmarkProfile& profile,
                                const cpu::SchemeConfig& scheme, double vdd) const {
  return run_job(cfg_, profile, scheme, vdd, nullptr);
}

RunResult ExperimentRunner::run_fault_free(const workload::BenchmarkProfile& profile,
                                           double vdd) const {
  return run_job(cfg_, profile, std::nullopt, vdd, nullptr);
}

RunSnapshot ExperimentRunner::capture(const workload::BenchmarkProfile& profile,
                                      const std::optional<cpu::SchemeConfig>& scheme, double vdd,
                                      u64 at_committed) const {
  JobContext ctx(cfg_, profile, scheme, vdd);
  StatSet base;
  u64 base_committed = 0;
  Cycle base_cycles = 0;
  CaptureSpec cap;
  cap.at = at_committed;
  cap.stop_after = true;
  drive_run(cfg_, ctx, profile, vdd, &cap, base, base_committed, base_cycles);
  if (!cap.done) {
    throw std::runtime_error("capture point " + std::to_string(at_committed) +
                             " never reached (source drained)");
  }
  return std::move(cap.snapshot);
}

CaptureResult ExperimentRunner::run_and_capture(const workload::BenchmarkProfile& profile,
                                                const std::optional<cpu::SchemeConfig>& scheme,
                                                double vdd, u64 at_committed) const {
  JobContext ctx(cfg_, profile, scheme, vdd);
  StatSet base;
  u64 base_committed = 0;
  Cycle base_cycles = 0;
  CaptureSpec cap;
  cap.at = at_committed;
  drive_run(cfg_, ctx, profile, vdd, &cap, base, base_committed, base_cycles);
  cpu::PipelineResult pr = ctx.pipe->result_window(base, base_committed, base_cycles);
  CaptureResult out{detail::assemble_result(cfg_, ctx, profile, vdd, std::move(pr)),
                    std::move(cap.snapshot)};
  return out;
}

RunResult ExperimentRunner::run_from(const RunSnapshot& snapshot,
                                     std::optional<double> vdd_override) const {
  const RunMeta& m = snapshot.meta();
  if (vdd_override && !m.fault_free && *vdd_override != m.vdd) {
    throw snap::SnapshotError(
        "vdd override is only valid for fault-free snapshots (supply changes execution)");
  }
  const std::optional<cpu::SchemeConfig> scheme_opt =
      m.fault_free ? std::optional<cpu::SchemeConfig>{} : std::optional(m.scheme);
  const u64 key = warmup_key(cfg_, m.profile, scheme_opt, m.vdd);
  if (key != m.warmup_key) {
    throw snap::SnapshotError(
        "warmup key mismatch: the resuming runner's warmup-relevant configuration differs "
        "from the capturing one");
  }

  JobContext ctx(cfg_, m.profile, scheme_opt, m.vdd);
  detail::restore_into(ctx, snapshot);

  cpu::Pipeline& pipe = *ctx.pipe;
  StatSet base = m.base;
  u64 base_committed = m.base_committed;
  Cycle base_cycles = m.base_cycles;
  if (!m.base_captured && cfg_.warmup > 0) {
    // Pre-boundary capture: finish warmup, then read the measurement base
    // exactly where the uninterrupted run would have.
    pipe.set_commit_limit(cfg_.warmup);
    while (pipe.committed() < cfg_.warmup && pipe.step()) {
    }
    base = pipe.snapshot_stats();
    base_committed = pipe.committed();
    base_cycles = pipe.now();
  }
  // Warm-started timelines begin at the fork point (restore_into already
  // rebaselined); the cut here separates any residual warmup windows so
  // measured sums still reconcile with the measured StatSet.
  if (ctx.timeline) ctx.timeline->mark_measurement(pipe.now(), pipe.committed());
  const u64 target = cfg_.warmup + cfg_.instructions;
  pipe.set_commit_limit(target);
  while (pipe.committed() < target && pipe.step()) {
  }
  cpu::PipelineResult pr = pipe.result_window(base, base_committed, base_cycles);
  return detail::assemble_result(cfg_, ctx, m.profile, vdd_override.value_or(m.vdd),
                                 std::move(pr));
}

const std::vector<cpu::SchemeConfig>& comparative_schemes() {
  static const std::vector<cpu::SchemeConfig> schemes = {
      cpu::scheme_razor(), cpu::scheme_error_padding(), cpu::scheme_abs(),
      cpu::scheme_ffs(), cpu::scheme_cds()};
  return schemes;
}

std::optional<cpu::SchemeConfig> scheme_by_name(const std::string& name) {
  if (name == "fault-free") return cpu::scheme_fault_free();
  for (const cpu::SchemeConfig& s : comparative_schemes()) {
    if (s.name == name) return s;
  }
  return std::nullopt;
}

}  // namespace vasim::core
