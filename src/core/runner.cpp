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
using detail::MeasurementBase;

/// What drive() leaves behind: the measurement base it read and, when a
/// capture was requested, the snapshot it stopped at.
struct Driven {
  MeasurementBase base;
  std::optional<RunSnapshot> captured;
};

/// The one run loop behind every entry point.  It starts cold, or from
/// `start` restored into `ctx`, and steps through warmup and then the
/// measured window, with the same commit limits at the same boundaries as
/// Pipeline::run.  At every cycle boundary it writes the due
/// RunnerConfig::snapshot_interval files.  When `capture_at` is set it stops
/// at the first boundary with at least that many commits and returns the
/// snapshot taken there; a point at or past the end resolves to the final
/// state.  Capture points quantize to cycle boundaries, which is why
/// continuing from one is bit-identical to never having paused.
Driven drive(const RunnerConfig& cfg, JobContext& ctx, const RunSnapshot* start,
             std::optional<u64> capture_at) {
  cpu::Pipeline& pipe = *ctx.pipe;
  Driven d;
  if (start != nullptr) {
    detail::restore_into(ctx, *start);
    const RunMeta& m = start->meta();
    d.base = {m.base, m.base_committed, m.base_cycles, m.base_captured};
  }
  // A resumed run writes the periodic files due after its fork point.
  const u64 interval = cfg.snapshot_interval;
  u64 next_periodic = interval == 0 ? 0 : (pipe.committed() / interval + 1) * interval;
  // The meter counts and rates only the commits this run performs, not
  // those a resumed run restored.
  const u64 first = pipe.committed();
  std::optional<ProgressMeter> meter;
  if (cfg.progress) {
    meter.emplace("run", std::max(cfg.warmup + cfg.instructions, first) - first, "commits");
  }
  u64 progress_tick = 0;

  // Returns false once the requested capture is taken: the run stops there.
  const auto boundary = [&]() -> bool {
    // The meter rate-limits its own printing; the tick mask just keeps the
    // steady-clock read off most cycles.
    if (meter && (++progress_tick & 0x1FFF) == 0) meter->update(pipe.committed() - first);
    if (capture_at && pipe.committed() >= *capture_at) {
      d.captured = detail::make_snapshot(cfg, ctx, d.base);
      return false;
    }
    while (interval > 0 && pipe.committed() >= next_periodic) {
      detail::make_snapshot(cfg, ctx, d.base)
          .write_file(cfg.snapshot_path + std::to_string(pipe.committed()) + ".vsnap");
      next_periodic += interval;
    }
    return true;
  };
  const auto run_to = [&](u64 limit) -> bool {
    pipe.set_commit_limit(limit);
    while (pipe.committed() < limit) {
      if (!boundary()) return false;
      if (!pipe.step()) break;
    }
    return true;
  };

  if (!d.base.captured && cfg.warmup > 0) {
    // A capture at exactly the warmup boundary lands in the second
    // boundary() call, *before* the base is read: the resuming side
    // re-derives the identical base from the restored state, so the
    // snapshot stays measurement-agnostic.
    if (!run_to(cfg.warmup) || !boundary()) return d;
    d.base = {pipe.snapshot_stats(), pipe.committed(), pipe.now(), true};
  }
  // Cut the timeline exactly at the measurement base so the measured
  // windows sum to the measured StatSet, counter for counter.  A resumed
  // timeline begins at the fork point (restore_into rebaselined it); the
  // cut separates any residual warmup windows.
  if (ctx.timeline && (cfg.warmup > 0 || start != nullptr)) {
    ctx.timeline->mark_measurement(pipe.now(), pipe.committed());
  }
  if (!run_to(cfg.warmup + cfg.instructions)) return d;
  // The run cannot commit past its target (and may fall short if the source
  // drained), so a still-pending capture fires at the final state.
  if (capture_at) capture_at = pipe.committed();
  boundary();
  if (meter) meter->finish(pipe.committed() - first);
  return d;
}

/// Drives `ctx` through its measured window and assembles the result,
/// reported at supply `vdd`.
RunResult measure(const RunnerConfig& cfg, JobContext& ctx, const RunSnapshot* start,
                  double vdd) {
  const MeasurementBase b = drive(cfg, ctx, start, std::nullopt).base;
  RunResult r = detail::assemble_result(cfg, ctx, vdd,
                                        ctx.pipe->result_window(b.stats, b.committed, b.cycles));
  r.warmup_cycles = b.cycles;
  return r;
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
                                const std::optional<cpu::SchemeConfig>& scheme, double vdd,
                                std::span<cpu::SchedHooks* const> sinks,
                                isa::InstructionSource* source) const {
  if (source != nullptr && cfg_.snapshot_interval != 0) {
    throw std::invalid_argument(
        "ExperimentRunner::run: an external instruction source cannot write snapshots "
        "(snapshot_interval != 0); a snapshot holds the profile generator's state");
  }
  JobContext ctx(cfg_, profile, scheme, vdd, source);
  for (cpu::SchedHooks* h : sinks) ctx.pipe->add_check_hooks(h);
  return measure(cfg_, ctx, nullptr, vdd);
}

RunSnapshot ExperimentRunner::capture(const workload::BenchmarkProfile& profile,
                                      const std::optional<cpu::SchemeConfig>& scheme, double vdd,
                                      u64 at_committed) const {
  JobContext ctx(cfg_, profile, scheme, vdd);
  return *drive(cfg_, ctx, nullptr, at_committed).captured;
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
  return measure(cfg_, ctx, &snapshot, vdd_override.value_or(m.vdd));
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
