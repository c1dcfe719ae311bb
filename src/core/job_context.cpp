#include "src/core/job_context.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace vasim::core::detail {
namespace {

/// The chunk `tag`, which must carry payload layout `version`.
const snap::Chunk& require_version(const snap::Snapshot& c, u32 tag, u32 version = 1) {
  const snap::Chunk& chunk = c.require(tag);
  if (chunk.version != version) {
    throw snap::SnapshotError(snap::tag_name(tag) + " chunk version " +
                              std::to_string(chunk.version) + " (this build reads " +
                              std::to_string(version) + ")");
  }
  return chunk;
}

}  // namespace

JobContext::JobContext(const RunnerConfig& cfg, const workload::BenchmarkProfile& profile,
                       const std::optional<cpu::SchemeConfig>& scheme_opt, double vdd,
                       isa::InstructionSource* source)
    : gen(profile), vdd(vdd) {
  fault_free = !scheme_opt.has_value();
  scheme = fault_free ? cpu::scheme_fault_free() : *scheme_opt;
  if (!fault_free) {
    timing::PathModelConfig path_cfg;
    path_cfg.seed = profile.seed;
    path_cfg.p_faulty_high = profile.fr_high_pct / 100.0 * profile.fr_calib_high;
    path_cfg.p_faulty_low = profile.fr_low_pct / 100.0 * profile.fr_calib_low;
    fm.emplace(path_cfg, vdd);
    if (cfg.dvfs.adaptive()) {
      timing::StateDelayConfig sd;
      sd.seed = profile.seed;
      timing::ProcessConfig pc;
      pc.seed = hash_combine(profile.seed, 0x9a7eULL);
      state_delay.emplace(sd, timing::ProcessVariation(pc), vdd);
      fm->set_state_model(&*state_delay);
      clock.emplace(cfg.dvfs, vdd);
    }
    tep.emplace(cfg.tep, &fm->environment());
    mre.emplace(cfg.tep.entries);
    tvp.emplace(cfg.tep.entries);
    if (scheme.use_predictor) {
      switch (cfg.predictor) {
        case PredictorKind::kTep: predictor = &*tep; break;
        case PredictorKind::kMre: predictor = &*mre; break;
        case PredictorKind::kTvp: predictor = &*tvp; break;
      }
    }
  }
  pipe.emplace(cfg.core, scheme, source != nullptr ? source : &gen,
               fault_free ? nullptr : &*fm, predictor);
  // Attach before the timeline is built so its ctor freezes a column set
  // that includes the dvfs counters.
  if (clock) pipe->set_clock(&*clock);
  if (cfg.check_semantics) {
    checker.emplace(cfg.core, scheme);
    checker->attach(*pipe);
  }
  if (cfg.commit_trail_stride > 0) {
    trail_obs.emplace(cfg.commit_trail_stride, &trail);
    pipe->add_check_hooks(&*trail_obs);
  }
  if (cfg.timeline_interval > 0) {
    obs::Timeline::Config tc;
    tc.interval = cfg.timeline_interval;
    // Full-run window budget plus slack for the boundary cut and the final
    // partial window: sampling never allocates in steady state.
    tc.capacity_hint =
        static_cast<std::size_t>((cfg.warmup + cfg.instructions) / cfg.timeline_interval) + 8;
    timeline = std::make_shared<obs::Timeline>(tc, &pipe->registry());
    pipe->set_timeline(timeline.get(), cfg.timeline_interval);
  }
  if (cfg.profiler_hub != nullptr) {
    profiler.emplace();
    pipe->set_profiler(&*profiler);
  }
}

RunSnapshot make_snapshot(const RunnerConfig& cfg, const JobContext& ctx,
                          const MeasurementBase& base) {
  if (ctx.checker && !ctx.checker->ok()) {
    throw std::runtime_error("snapshot capture refused, semantics checker failed:\n" +
                             ctx.checker->report());
  }
  RunSnapshot s;
  RunMeta m;
  m.fault_free = ctx.fault_free;
  m.profile = ctx.gen.profile();
  if (!ctx.fault_free) m.scheme = ctx.scheme;
  m.vdd = ctx.vdd;
  m.instructions = cfg.instructions;
  m.warmup = cfg.warmup;
  m.core = cfg.core;
  m.tep = cfg.tep;
  m.predictor = cfg.predictor;
  m.check_semantics = cfg.check_semantics;
  m.commit_trail_stride = cfg.commit_trail_stride;
  m.dvfs = cfg.dvfs;
  m.captured_committed = ctx.pipe->committed();
  m.captured_cycle = ctx.pipe->now();
  m.base_captured = base.captured;
  if (base.captured) {
    m.base = base.stats;
    m.base_committed = base.committed;
    m.base_cycles = base.cycles;
  }
  m.warmup_key = warmup_key(
      cfg, m.profile,
      ctx.fault_free ? std::optional<cpu::SchemeConfig>{} : std::optional(ctx.scheme), m.vdd);

  snap::Writer meta_w;
  put_run_meta(meta_w, m);
  s.container().add(kChunkMeta, kMetaChunkVersion, std::move(meta_w));
  snap::Writer pipe_w;
  ctx.pipe->save_state(pipe_w);
  s.container().add(kChunkPipe, kPipeChunkVersion, std::move(pipe_w));
  snap::Writer gen_w;
  ctx.gen.save_state(gen_w);
  s.container().add(kChunkTgen, 1, std::move(gen_w));
  if (!ctx.fault_free) {
    snap::Writer pred_w;
    ctx.tep->save_state(pred_w);
    ctx.mre->save_state(pred_w);
    ctx.tvp->save_state(pred_w);
    s.container().add(kChunkPred, 1, std::move(pred_w));
  }
  if (ctx.checker) {
    snap::Writer chk_w;
    ctx.checker->save_state(chk_w);
    s.container().add(kChunkChkr, kCheckerChunkVersion, std::move(chk_w));
  }
  if (ctx.trail_obs) {
    snap::Writer trail_w;
    trail_w.put_u64(ctx.trail_obs->commits());
    trail_w.put_u32(static_cast<u32>(ctx.trail.size()));
    for (const Cycle c : ctx.trail) trail_w.put_u64(c);
    s.container().add(kChunkTral, 1, std::move(trail_w));
  }
  if (ctx.clock) {
    snap::Writer adpt_w;
    ctx.clock->save_state(adpt_w);
    s.container().add(kChunkAdpt, 1, std::move(adpt_w));
  }
  // Re-decode through the public path so meta() is populated and the
  // container is known-loadable before anyone relies on it.
  return RunSnapshot::from_container(std::move(s.container()));
}

void restore_into(JobContext& ctx, const RunSnapshot& s) {
  {
    snap::Reader r(require_version(s.container(), kChunkTgen).payload);
    ctx.gen.restore_state(r);
    r.expect_done("TGEN chunk");
  }
  {
    snap::Reader r(require_version(s.container(), kChunkPipe, kPipeChunkVersion).payload);
    ctx.pipe->restore_state(r);
    r.expect_done("PIPE chunk");
  }
  if (!ctx.fault_free) {
    snap::Reader r(require_version(s.container(), kChunkPred).payload);
    ctx.tep->restore_state(r);
    ctx.mre->restore_state(r);
    ctx.tvp->restore_state(r);
    r.expect_done("PRED chunk");
  }
  if (ctx.checker) {
    snap::Reader r(require_version(s.container(), kChunkChkr, kCheckerChunkVersion).payload);
    ctx.checker->restore_state(r);
    r.expect_done("CHKR chunk");
  }
  if (ctx.trail_obs) {
    snap::Reader r(require_version(s.container(), kChunkTral).payload);
    const u64 commits = r.get_u64();
    const u32 n = r.get_count("TRAL commit trail", 8);
    ctx.trail.clear();
    ctx.trail.reserve(n);
    for (u32 i = 0; i < n; ++i) ctx.trail.push_back(r.get_u64());
    r.expect_done("TRAL chunk");
    ctx.trail_obs->set_commits(commits);
  }
  if (ctx.clock) {
    snap::Reader r(require_version(s.container(), kChunkAdpt).payload);
    ctx.clock->restore_state(r);
    r.expect_done("ADPT chunk");
    // Re-attach: re-arms the epoch threshold from the restored commit count
    // and refreshes the cached period scale from the restored controller.
    ctx.pipe->set_clock(&*ctx.clock);
  }
  if (ctx.timeline) {
    // Warm-start fork: the timeline begins at the restored machine state.
    // Re-attaching re-arms the next K-commit threshold from the restored
    // commit count so the sampling grid continues seamlessly.
    ctx.timeline->rebaseline(ctx.pipe->now(), ctx.pipe->committed());
    ctx.pipe->set_timeline(ctx.timeline.get(), ctx.timeline->interval());
  }
}

RunResult assemble_result(const RunnerConfig& cfg, JobContext& ctx, double vdd,
                          cpu::PipelineResult&& pr) {
  if (ctx.checker && !ctx.checker->ok()) throw std::runtime_error(ctx.checker->report());

  RunResult r;
  r.benchmark = ctx.gen.profile().name;
  r.scheme = ctx.fault_free ? "fault-free" : ctx.scheme.name;
  r.commit_trail = std::move(ctx.trail);
  r.checker_checks = ctx.checker ? ctx.checker->checks() : 0;
  r.vdd = vdd;
  r.committed = pr.committed;
  r.cycles = pr.cycles;
  r.ipc = pr.ipc();
  const double actual = static_cast<double>(pr.stats.count("fault.actual"));
  const double committed_faulty = static_cast<double>(pr.stats.count("fault.committed_faulty"));
  r.fault_rate_pct =
      pr.committed == 0 ? 0.0 : committed_faulty / static_cast<double>(pr.committed) * 100.0;
  r.replays = static_cast<double>(pr.stats.count("fault.replays"));
  r.predictor_accuracy =
      actual > 0.0 ? static_cast<double>(pr.stats.count("fault.handled")) / actual : 0.0;
  const EnergyModel em(cfg.energy);
  r.energy = em.compute(pr.stats, vdd);
  r.cpi = pr.cpi;
  r.stats = std::move(pr.stats);
  if (ctx.timeline) {
    ctx.timeline->finalize(ctx.pipe->now(), ctx.pipe->committed());
    r.timeline = ctx.timeline;
  }
  if (ctx.clock) {
    DvfsSummary d;
    d.policy = std::string(adapt::to_string(ctx.clock->config().policy));
    d.epochs = ctx.clock->epochs();
    d.wall_units = r.stats.count("dvfs.wall_units");  // measured window (diffed)
    d.period_final = ctx.clock->period_permille();
    d.period_lo = ctx.clock->period_lo();
    d.period_hi = ctx.clock->period_hi();
    d.avg_period_permille =
        r.cycles > 0 ? static_cast<double>(d.wall_units) / static_cast<double>(r.cycles) : 0.0;
    d.throughput = d.wall_units > 0
                       ? static_cast<double>(r.committed) * 1000.0 / static_cast<double>(d.wall_units)
                       : 0.0;
    d.trajectory = ctx.clock->trajectory();
    r.dvfs = std::move(d);
  }
  if (cfg.profiler_hub != nullptr && ctx.profiler) {
    cfg.profiler_hub->merge(ctx.profiler->snapshot());
    ctx.profiler->reset();  // a context reused after assembly starts clean
  }
  return r;
}

}  // namespace vasim::core::detail
