// Traced mode: the per-layer metrics.
//
// Every job is rebuilt from the public pieces -- workload::TraceGenerator,
// timing::FaultModel (+ StateDelayModel and adapt::ClockDomain on adaptive
// jobs), core::TimingErrorPredictor and cpu::Pipeline, wired exactly as
// core::ExperimentRunner wires them -- and driven with set_commit_limit /
// step / result_window.  Warm-started jobs go through
// ExperimentRunner::capture, snapshot encode/decode and run_from.  Spans
// around those calls are kept in memory per job and written out at exit:
//   * real spans: name, start, end, parent, job;
//   * aggregate spans for per-call work inside the cycle loop (the
//     TraceGenerator::next and FaultPredictor decorators): the summed time
//     of N calls, collapsed to one span starting at its parent's start.
// A span's self time is its duration minus that of its children.
//
// The fault oracle cannot be decorated (the pipeline holds a concrete
// FaultModel), so its calls are recorded through cpu::SchedHooks -- every
// select visit that reached the oracle, with the pipeline's decision -- and
// a bounded sample is replayed through FaultModel::query / query_adaptive
// after the job, which both times the oracle per call and checks that the
// replay reproduces every recorded decision.
//
// Every traced job must reproduce the untraced sweep's result exactly
// (core::result_checksum covers committed, cycles and every stat counter).
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "perfbench/src/bench.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/energy.hpp"
#include "src/core/snapshot.hpp"
#include "src/cpu/check_hooks.hpp"
#include "src/snap/format.hpp"
#include "src/timing/process_variation.hpp"
#include "src/workload/trace_generator.hpp"

namespace perfbench {
namespace {

namespace core = vasim::core;
namespace cpu = vasim::cpu;
namespace timing = vasim::timing;
using vasim::Cycle;
using vasim::Pc;
using vasim::StatSet;
using vasim::u8;
using i64 = long long;

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// ---- spans ---------------------------------------------------------------------

struct Span {
  const char* name = "";
  u32 job = 0;
  int id = 0;
  int parent = -1;  ///< index within the same job's spans; -1 for a root
  i64 t0 = 0;
  i64 t1 = 0;
  u64 calls = 1;    ///< > 1: aggregate of that many calls
  i64 self = 0;     ///< filled in when the job's spans are merged
};

/// One job's spans; single-threaded, merged into the store when done.
class SpanBuf {
 public:
  explicit SpanBuf(u32 job) : job_(job) {}

  int open(const char* name, int parent) {
    const i64 t = now_ns();
    spans_.push_back({name, job_, static_cast<int>(spans_.size()), parent, t, t, 1, 0});
    return spans_.back().id;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].t1 = now_ns(); }
  void set_calls(int id, u64 calls) { spans_[static_cast<std::size_t>(id)].calls = calls; }

  /// `calls` calls costing `ns` in total, made inside span `parent`.
  void aggregate(const char* name, int parent, u64 calls, i64 ns) {
    const i64 t0 = spans_[static_cast<std::size_t>(parent)].t0;
    spans_.push_back({name, job_, static_cast<int>(spans_.size()), parent, t0, t0 + ns, calls, 0});
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  u32 job_;
  std::vector<Span> spans_;
};

/// RAII span; a null buffer makes it free.
class Scope {
 public:
  Scope(SpanBuf* buf, const char* name, int parent)
      : buf_(buf), id_(buf != nullptr ? buf->open(name, parent) : -1) {}
  ~Scope() {
    if (buf_ != nullptr) buf_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanBuf* buf_;
  int id_;
};

class SpanStore {
 public:
  void merge(SpanBuf& buf) {
    std::vector<Span>& s = buf.spans();
    std::vector<i64> child(s.size(), 0);
    for (const Span& sp : s) {
      if (sp.parent >= 0) child[static_cast<std::size_t>(sp.parent)] += sp.t1 - sp.t0;
    }
    for (std::size_t i = 0; i < s.size(); ++i) s[i].self = (s[i].t1 - s[i].t0) - child[i];
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), s.begin(), s.end());
  }

  struct Totals {
    u64 spans = 0;
    u64 calls = 0;
    i64 ns = 0;
    i64 self = 0;
  };
  /// Per-name totals (call after every worker has finished).
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::map<std::string, Totals> t;
    for (const Span& s : spans_) {
      Totals& x = t[s.name];
      ++x.spans;
      x.calls += s.calls;
      x.ns += s.t1 - s.t0;
      x.self += s.self;
    }
    return t;
  }

  /// Chrome trace-event JSON (Perfetto / chrome://tracing): one row per job.
  void write_chrome(const std::string& path, const Workload& w) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    i64 base = spans_.empty() ? 0 : spans_.front().t0;
    for (const Span& s : spans_) base = std::min(base, s.t0);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string job =
          s.job < w.jobs.size() ? w.jobs[s.job].name : "group " + std::to_string(s.job);
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"calls\":%" PRIu64 ",\"self_us\":%.3f,\"parent\":%d,\"job\":",
                    s.name, s.job, static_cast<double>(s.t0 - base) / 1e3,
                    static_cast<double>(s.t1 - s.t0) / 1e3, s.calls,
                    static_cast<double>(s.self) / 1e3, s.parent);
      out << buf << json_string(job) << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- decorators ------------------------------------------------------------------

struct Tally {
  u64 calls = 0;
  i64 ns = 0;
  Tally operator-(const Tally& o) const { return {calls - o.calls, ns - o.ns}; }
};

/// Times every TraceGenerator::next behind the pipeline's InstructionSource.
class TimedSource final : public vasim::isa::InstructionSource {
 public:
  explicit TimedSource(vasim::isa::InstructionSource* inner) : inner_(inner) {}
  bool next(vasim::isa::DynInst& out) override {
    const i64 t0 = now_ns();
    const bool ok = inner_->next(out);
    tally.ns += now_ns() - t0;
    ++tally.calls;
    return ok;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  Tally tally;

 private:
  vasim::isa::InstructionSource* inner_;
};

/// Times every call into the TEP behind the pipeline's FaultPredictor.
class TimedPredictor final : public cpu::FaultPredictor {
 public:
  explicit TimedPredictor(cpu::FaultPredictor* inner) : inner_(inner) {}
  cpu::FaultPrediction predict(Pc pc, u64 history, Cycle now) override {
    const i64 t0 = now_ns();
    const cpu::FaultPrediction p = inner_->predict(pc, history, now);
    predict_t.ns += now_ns() - t0;
    ++predict_t.calls;
    return p;
  }
  void train(Pc pc, u64 history, bool faulty, timing::OooStage stage) override {
    const i64 t0 = now_ns();
    inner_->train(pc, history, faulty, stage);
    train_t.ns += now_ns() - t0;
    ++train_t.calls;
  }
  void mark_critical(Pc pc, u64 history, bool critical) override {
    const i64 t0 = now_ns();
    inner_->mark_critical(pc, history, critical);
    crit_t.ns += now_ns() - t0;
    ++crit_t.calls;
  }

  Tally predict_t;
  Tally train_t;
  Tally crit_t;

 private:
  cpu::FaultPredictor* inner_;
};

/// The pipeline's operand signature for the state-dependent delay model
/// (Pipeline::issue_one passes the same hash to query_adaptive).
u64 operand_signature(const vasim::isa::DynInst& di) {
  u64 h = vasim::hash_combine(static_cast<u64>(di.src1 + 1), static_cast<u64>(di.src2 + 1));
  h = vasim::hash_combine(h, static_cast<u64>(di.dst + 1));
  return vasim::hash_combine(h, di.mem_addr);
}

struct OracleCall {
  u64 pc = 0;
  u64 cycle = 0;
  u64 sig = 0;
  u32 period_permille = 1000;
  u8 cls = 0;
  u8 faulty = 0;
  u8 stage = 0;
};

/// Replay sample size per job (bounded memory; the count stays exact).
constexpr std::size_t kReplayCap = 1U << 17;

/// Counts oracle calls exactly and samples them with the pipeline's decision:
/// a select visit reaches the oracle unless the load was blocked, and the
/// oracle skips safe-mode and wrong-path instances (Pipeline::issue_one).
class OracleRecorder final : public cpu::SchedHooks {
 public:
  explicit OracleRecorder(const vasim::adapt::ClockDomain* clock) : clock_(clock) {
    sample.reserve(kReplayCap);
  }
  void on_select_visit(Cycle now, const cpu::InstState& is, cpu::SelectOutcome outcome) override {
    if (outcome == cpu::SelectOutcome::kLoadBlocked || is.safe_mode || is.wrong_path) return;
    ++queries;
    if (sample.size() >= kReplayCap) return;
    OracleCall c;
    c.pc = is.di.pc;
    c.cycle = now;
    c.cls = static_cast<u8>(vasim::isa::is_mem(is.di.op) ? timing::FaultClass::kMemLike
                                                         : timing::FaultClass::kAluLike);
    c.faulty = is.actual_fault ? 1 : 0;
    c.stage = static_cast<u8>(is.actual_stage);
    if (clock_ != nullptr) {
      c.sig = operand_signature(is.di);
      c.period_permille = clock_->period_permille();
    }
    sample.push_back(c);
  }

  u64 queries = 0;
  std::vector<OracleCall> sample;

 private:
  const vasim::adapt::ClockDomain* clock_;
};

// ---- simulator construction ------------------------------------------------------

/// One job's simulator, wired as core::ExperimentRunner wires it.  Never
/// moved: the pipeline points into the other members.
struct Sim {
  std::optional<vasim::workload::TraceGenerator> gen;
  std::optional<TimedSource> src;
  std::optional<timing::FaultModel> fm;
  std::optional<timing::StateDelayModel> state_delay;
  std::optional<vasim::adapt::ClockDomain> clock;
  std::optional<core::TimingErrorPredictor> tep;
  std::optional<TimedPredictor> tep_timed;
  std::optional<cpu::Pipeline> pipe;
  cpu::SchemeConfig scheme;
  bool fault_free = true;
};

void require_plain(const core::RunnerConfig& cfg) {
  if (cfg.check_semantics || cfg.commit_trail_stride != 0 || cfg.timeline_interval != 0 ||
      cfg.snapshot_interval != 0 || cfg.profiler_hub != nullptr ||
      cfg.predictor != core::PredictorKind::kTep) {
    throw std::logic_error("the traced run models plain TEP jobs only");
  }
}

/// Builds `s`.  With a span buffer every constructor gets a span under
/// `parent` and the source / predictor are wrapped in the timing decorators.
void build_sim(Sim& s, const core::RunnerConfig& cfg, const core::SweepJob& job, SpanBuf* buf,
               int parent) {
  require_plain(cfg);
  const vasim::workload::BenchmarkProfile& profile = job.profile;
  s.fault_free = !job.scheme.has_value();
  s.scheme = s.fault_free ? cpu::scheme_fault_free() : *job.scheme;
  {
    const Scope sc(buf, "workload.ctor", parent);
    s.gen.emplace(profile);
  }
  cpu::FaultPredictor* predictor = nullptr;
  if (!s.fault_free) {
    {
      const Scope sc(buf, "timing.ctor", parent);
      timing::PathModelConfig path_cfg;
      path_cfg.seed = profile.seed;
      path_cfg.p_faulty_high = profile.fr_high_pct / 100.0 * profile.fr_calib_high;
      path_cfg.p_faulty_low = profile.fr_low_pct / 100.0 * profile.fr_calib_low;
      s.fm.emplace(path_cfg, job.vdd);
    }
    if (cfg.dvfs.adaptive()) {
      const Scope sc(buf, "adapt.ctor", parent);
      timing::StateDelayConfig sd;
      sd.seed = profile.seed;
      timing::ProcessConfig pc;
      pc.seed = vasim::hash_combine(profile.seed, 0x9a7eULL);
      s.state_delay.emplace(sd, timing::ProcessVariation(pc), job.vdd);
      s.fm->set_state_model(&*s.state_delay);
      s.clock.emplace(cfg.dvfs, job.vdd);
    }
    {
      const Scope sc(buf, "tep.ctor", parent);
      s.tep.emplace(cfg.tep, &s.fm->environment());
    }
    if (s.scheme.use_predictor) {
      predictor = &*s.tep;
      if (buf != nullptr) predictor = &s.tep_timed.emplace(predictor);
    }
  }
  vasim::isa::InstructionSource* source = &*s.gen;
  if (buf != nullptr) source = &s.src.emplace(source);
  const Scope sc(buf, "cpu.ctor", parent);
  s.pipe.emplace(cfg.core, s.scheme, source, s.fault_free ? nullptr : &*s.fm, predictor);
  if (s.clock) s.pipe->set_clock(&*s.clock);
}

// ---- one traced job ----------------------------------------------------------------

struct JobRun {
  core::RunResult result;
  u64 committed_total = 0;
  Cycle cycles_total = 0;
  u64 queries = 0;
  bool adaptive = false;
  u64 replayed = 0;
  u64 replay_mismatches = 0;
  std::string error;
};

/// Mirrors core::detail::assemble_result for the fields the checksum and
/// the per-layer metrics read.
core::RunResult assemble(const core::RunnerConfig& cfg, const Sim& s,
                         const vasim::workload::BenchmarkProfile& profile, double vdd,
                         cpu::PipelineResult&& pr) {
  core::RunResult r;
  r.benchmark = profile.name;
  r.scheme = s.fault_free ? "fault-free" : s.scheme.name;
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
  r.energy = core::EnergyModel(cfg.energy).compute(pr.stats, vdd);
  r.cpi = pr.cpi;
  r.stats = std::move(pr.stats);
  if (s.clock) {
    core::DvfsSummary d;
    d.policy = std::string(vasim::adapt::to_string(s.clock->config().policy));
    d.epochs = s.clock->epochs();
    d.wall_units = r.stats.count("dvfs.wall_units");
    d.period_final = s.clock->period_permille();
    d.period_lo = s.clock->period_lo();
    d.period_hi = s.clock->period_hi();
    d.avg_period_permille =
        r.cycles > 0 ? static_cast<double>(d.wall_units) / static_cast<double>(r.cycles) : 0.0;
    d.throughput = d.wall_units > 0 ? static_cast<double>(r.committed) * 1000.0 /
                                          static_cast<double>(d.wall_units)
                                    : 0.0;
    r.dvfs = std::move(d);
  }
  return r;
}

JobRun run_decomposed(const core::RunnerConfig& cfg, const core::SweepJob& job, SpanBuf& buf) {
  JobRun jr;
  Sim s;
  std::optional<OracleRecorder> rec;
  {
    const Scope root(&buf, "job", -1);
    build_sim(s, cfg, job, &buf, root.id());
    cpu::Pipeline& pipe = *s.pipe;
    if (s.fm && (s.fm->enabled() || s.clock)) {
      rec.emplace(s.clock ? &*s.clock : nullptr);
      pipe.set_check_hooks(&*rec);
    }
    // The runner's phase structure: commit limit at the warmup boundary,
    // then at warmup + instructions.
    const auto phase = [&](const char* name, u64 target) {
      const Tally src0 = s.src->tally;
      const std::optional<TimedPredictor> tep0 = s.tep_timed;
      int id = 0;
      {
        const Scope ph(&buf, name, root.id());
        id = ph.id();
        pipe.set_commit_limit(target);
        while (pipe.committed() < target) {
          if (!pipe.step()) break;
        }
      }
      const Tally d = s.src->tally - src0;
      buf.aggregate("workload.next", id, d.calls, d.ns);
      if (s.tep_timed) {
        const Tally dp = s.tep_timed->predict_t - tep0->predict_t;
        const Tally dt = s.tep_timed->train_t - tep0->train_t;
        const Tally dc = s.tep_timed->crit_t - tep0->crit_t;
        buf.aggregate("tep.predict", id, dp.calls, dp.ns);
        buf.aggregate("tep.train", id, dt.calls, dt.ns);
        buf.aggregate("tep.mark_critical", id, dc.calls, dc.ns);
      }
    };
    StatSet base;
    u64 base_committed = 0;
    Cycle base_cycles = 0;
    if (cfg.warmup > 0) {
      phase("cpu.warmup", cfg.warmup);
      const Scope sc(&buf, "core.result", root.id());
      base = pipe.snapshot_stats();
      base_committed = pipe.committed();
      base_cycles = pipe.now();
    }
    phase("cpu.measure", cfg.warmup + cfg.instructions);
    {
      const Scope sc(&buf, "core.result", root.id());
      jr.result = assemble(cfg, s, job.profile, job.vdd,
                           pipe.result_window(base, base_committed, base_cycles));
    }
    jr.committed_total = pipe.committed();
    jr.cycles_total = pipe.now();
  }
  if (rec) {
    jr.queries = rec->queries;
    jr.adaptive = s.clock.has_value();
    jr.replayed = rec->sample.size();
    const Scope sc(&buf, jr.adaptive ? "timing.replay_adaptive" : "timing.replay", -1);
    u64 mismatches = 0;
    for (const OracleCall& c : rec->sample) {
      const auto cls = static_cast<timing::FaultClass>(c.cls);
      const timing::FaultDecision d =
          jr.adaptive ? s.fm->query_adaptive(c.pc, cls, c.cycle,
                                             static_cast<double>(c.period_permille) * 1e-3, c.sig)
                      : s.fm->query(c.pc, cls, c.cycle);
      if (d.faulty != (c.faulty != 0) || (d.faulty && static_cast<u8>(d.stage) != c.stage)) {
        ++mismatches;
      }
    }
    jr.replay_mismatches = mismatches;
    buf.set_calls(sc.id(), jr.replayed);
  }
  return jr;
}

/// One warm-start group: captured once, round-tripped through the encoded
/// container, resumed by every member.
struct GroupRun {
  std::optional<core::RunSnapshot> snap;
  u64 bytes = 0;
  std::string error;
};

std::string first_stat_diff(const core::RunResult& a, const core::RunResult& b) {
  const auto differ = [](const std::string& what, u64 x, u64 y) {
    return what + " " + std::to_string(x) + " vs " + std::to_string(y);
  };
  if (a.committed != b.committed) return differ("committed", a.committed, b.committed);
  if (a.cycles != b.cycles) return differ("cycles", a.cycles, b.cycles);
  for (const auto& [name, v] : b.stats.counters()) {
    if (a.stats.count(name) != v) return differ("counter " + name, a.stats.count(name), v);
  }
  if (a.stats.counters().size() != b.stats.counters().size()) return "counter sets differ";
  return "derived fields differ";
}

double ms(i64 ns) { return static_cast<double>(ns) / 1e6; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Profiler / timeline overhead on a fixed paper-grid subset: interleaved
/// off/on sweeps, median of each side.  Results must not move.
double instrument_overhead_pct(const Options& o, const std::vector<core::SweepJob>& jobs,
                               const core::RunnerConfig& base, bool profiler, Verdict& v) {
  constexpr int kPairs = 3;
  std::vector<double> off;
  std::vector<double> on;
  std::optional<u64> want;
  for (int p = 0; p < kPairs; ++p) {
    for (int k = 0; k < 2; ++k) {
      const bool with = (k == 0) == (p % 2 == 1);
      vasim::obs::ProfilerHub hub;
      core::RunnerConfig cfg = base;
      if (with && profiler) cfg.profiler_hub = &hub;
      if (with && !profiler) cfg.timeline_interval = 10'000;
      core::SweepRunner sweeper(cfg, o.workers);
      sweeper.set_batch(1);
      const core::SweepReport rep = sweeper.run(jobs);
      (with ? on : off).push_back(rep.wall_ms);
      const u64 sum = core::sweep_checksum(rep);
      if (!want) want = sum;
      v.attempted += jobs.size();
      if (sum != *want) {
        v.fail_job(profiler ? "obs.profiler-subset" : "obs.timeline-subset",
                   "instrument changed the simulated results");
      }
    }
  }
  return (ratio(median(on), median(off)) - 1.0) * 100.0;
}

}  // namespace

double construct_all(const Workload& w) {
  double total = 0.0;
  for (const NamedJob& j : w.jobs) {
    auto sim = std::make_unique<Sim>();
    const auto t0 = Clock::now();
    build_sim(*sim, job_config(w, j.job), j.job, nullptr, -1);
    total += seconds_since(t0);
  }
  return total;
}

RunOutcome run_traced(const Options& o, const Workload& w) {
  RunOutcome out;
  out.mode = "traced";
  const Pins pins = load_pins(o.pins_path, w, o.seed);
  const std::vector<core::SweepJob> jobs = sweep_jobs(w);

  // ---- untraced reference pass (also the core-layer measurements) -----------
  core::SweepRunner sweeper(w.config, o.workers);
  sweeper.set_batch(1);
  sweeper.set_reuse_warmup(w.reuse_warmup);
  const core::SweepReport ref = sweeper.run(jobs);
  const std::vector<core::RunResult> ref_results = results_of(ref);
  check_results(w, ref_results, pins, out.verdict);

  constexpr int kReps = 20;
  auto t = Clock::now();
  u64 checksum = 0;
  for (int k = 0; k < kReps; ++k) checksum = core::sweep_checksum(ref);
  const double checksum_ms = seconds_since(t) * 1e3 / kReps;
  t = Clock::now();
  std::size_t json_bytes = 0;
  for (int k = 0; k < kReps; ++k) {
    std::ostringstream os;
    core::write_sweep_json(os, w.name, ref);
    json_bytes = os.str().size();
  }
  const double json_ms = seconds_since(t) * 1e3 / kReps;
  double job_ms_sum = 0.0;
  std::vector<double> start_ms;
  for (const core::SweepOutcome& jo : ref.jobs) {
    job_ms_sum += jo.wall_ms;
    start_ms.push_back(jo.start_ms);
  }

  // ---- traced pass ---------------------------------------------------------------
  SpanStore store;
  const auto groups = warm_groups(w);
  std::vector<int> group_of(w.jobs.size(), -1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const std::size_t i : groups[g]) group_of[i] = static_cast<int>(g);
  }
  std::vector<GroupRun> group_runs(groups.size());
  std::vector<JobRun> runs(w.jobs.size());
  const auto traced_t0 = Clock::now();
  {
    vasim::ThreadPool pool(o.workers);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      pool.submit([&, g] {
        SpanBuf buf(static_cast<u32>(w.jobs.size() + g));
        GroupRun& gr = group_runs[g];
        try {
          const core::SweepJob& lead = jobs[groups[g].front()];
          const core::RunnerConfig& cfg = job_config(w, lead);
          const core::ExperimentRunner runner(cfg);
          const Scope root(&buf, "snap.group", -1);
          std::optional<core::RunSnapshot> captured;
          {
            const Scope sc(&buf, "snap.capture", root.id());
            captured.emplace(runner.capture(lead.profile, lead.scheme, lead.vdd, cfg.warmup));
          }
          std::vector<unsigned char> bytes;
          {
            const Scope sc(&buf, "snap.encode", root.id());
            bytes = vasim::snap::encode_snapshot(captured->container());
          }
          gr.bytes = bytes.size();
          const Scope sc(&buf, "snap.decode", root.id());
          gr.snap.emplace(core::RunSnapshot::from_container(
              vasim::snap::decode_snapshot(bytes.data(), bytes.size())));
        } catch (const std::exception& e) {
          gr.error = e.what();
        }
        store.merge(buf);
      });
    }
    pool.wait_idle();
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
      pool.submit([&, i] {
        SpanBuf buf(static_cast<u32>(i));
        JobRun& jr = runs[i];
        const core::RunnerConfig& cfg = job_config(w, jobs[i]);
        try {
          if (group_of[i] >= 0) {
            const GroupRun& gr = group_runs[static_cast<std::size_t>(group_of[i])];
            if (!gr.snap) throw std::runtime_error("warmup capture failed: " + gr.error);
            const Scope root(&buf, "job", -1);
            const Scope sc(&buf, "snap.run_from", root.id());
            jr.result = core::ExperimentRunner(cfg).run_from(*gr.snap, jobs[i].vdd);
          } else {
            jr = run_decomposed(cfg, jobs[i], buf);
          }
        } catch (const std::exception& e) {
          jr.error = e.what();
        }
        store.merge(buf);
      });
    }
    pool.wait_idle();
  }
  const double traced_wall_ms = seconds_since(traced_t0) * 1e3;

  // ---- traced == untraced, job by job ------------------------------------------
  out.verdict.attempted += w.jobs.size();
  u64 snap_bytes = 0;
  u64 cycles_saved = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    snap_bytes += group_runs[g].bytes;
    if (group_runs[g].snap) {
      cycles_saved += group_runs[g].snap->meta().captured_cycle * (groups[g].size() - 1);
    }
  }
  if (cycles_saved != ref.warmup_cycles_saved) {
    out.verdict.fail_job(w.name, "traced warmup cycles saved " + std::to_string(cycles_saved) +
                                     " != sweep's " + std::to_string(ref.warmup_cycles_saved));
  }
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const JobRun& jr = runs[i];
    const core::RunnerConfig& cfg = job_config(w, jobs[i]);
    std::string why;
    if (!jr.error.empty()) {
      why = "traced run threw: " + jr.error;
    } else if (core::result_checksum(jr.result) != core::result_checksum(ref_results[i]) ||
               jr.result.cpi.slots != ref_results[i].cpi.slots) {
      why = "traced result differs from the sweep's: " + first_stat_diff(jr.result, ref_results[i]);
    } else if (group_of[i] < 0 && jr.committed_total != cfg.warmup + cfg.instructions) {
      why = "committed " + std::to_string(jr.committed_total) + " != warmup + instructions";
    } else if (jr.replay_mismatches != 0) {
      why = std::to_string(jr.replay_mismatches) + " of " + std::to_string(jr.replayed) +
            " replayed oracle decisions differ from the pipeline's";
    }
    if (!why.empty()) out.verdict.fail_job(w.jobs[i].name, why);
  }

  // ---- instrument overheads on a fixed paper-grid subset --------------------------
  const Workload grid = make_workload("paper-grid", o.seed, o.instructions, o.warmup);
  std::vector<core::SweepJob> subset;
  for (const NamedJob& j : grid.jobs) {
    const bool pick = (j.name.rfind("bzip2/", 0) == 0 || j.name.rfind("mcf/", 0) == 0) &&
                      j.name.size() > 5 && j.name.compare(j.name.size() - 5, 5, "/1.04") == 0;
    if (pick) subset.push_back(j.job);
  }
  const double profiler_pct = instrument_overhead_pct(o, subset, grid.config, true, out.verdict);
  const double timeline_pct = instrument_overhead_pct(o, subset, grid.config, false, out.verdict);

  // ---- per-layer metrics ------------------------------------------------------------
  const auto tot = store.totals();
  const auto T = [&](const char* name) {
    const auto it = tot.find(name);
    return it == tot.end() ? SpanStore::Totals{} : it->second;
  };
  // Simulated aggregates over the measured windows of every job.
  double committed = 0, cycles = 0, scheme_committed = 0, faulty = 0, pred_committed = 0;
  double handled = 0, actual = 0, false_pos = 0, replays = 0, squashes = 0;
  double l1d_miss = 0, l1d_all = 0, l2_miss = 0, l2_all = 0, br_miss = 0, br_all = 0;
  double iq_occ = 0, sched_cycles = 0, epochs = 0, period = 0, throughput = 0, adaptive_jobs = 0;
  std::array<double, vasim::obs::kNumCpiCauses> cpi{};
  double cycles_stepped = 0;
  u64 queries = 0;
  u64 queries_adaptive_replayed = 0;
  u64 queries_static_replayed = 0;
  int commit_width = w.config.core.commit_width;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const core::RunResult& r = runs[i].result;
    const StatSet& st = r.stats;
    commit_width = job_config(w, jobs[i]).core.commit_width;
    committed += static_cast<double>(r.committed);
    cycles += static_cast<double>(r.cycles);
    if (jobs[i].scheme) {
      scheme_committed += static_cast<double>(r.committed);
      faulty += static_cast<double>(st.count("fault.committed_faulty"));
      if (jobs[i].scheme->use_predictor) {
        pred_committed += static_cast<double>(r.committed);
        handled += static_cast<double>(st.count("fault.handled"));
        actual += static_cast<double>(st.count("fault.actual"));
        false_pos += static_cast<double>(st.count("fault.false_positive"));
      }
    }
    replays += static_cast<double>(st.count("fault.replays"));
    squashes += static_cast<double>(st.count("ev.squash"));
    l1d_miss += static_cast<double>(st.count("cache.l1d.misses"));
    l1d_all += static_cast<double>(st.count("cache.l1d.misses") + st.count("cache.l1d.hits"));
    l2_miss += static_cast<double>(st.count("cache.l2.misses"));
    l2_all += static_cast<double>(st.count("cache.l2.misses") + st.count("cache.l2.hits"));
    br_miss += static_cast<double>(st.count("branch.mispredicts_total"));
    br_all += static_cast<double>(st.count("branch.lookups"));
    iq_occ += static_cast<double>(st.count("sel.iq_occupancy_sum"));
    const u64 stalls = std::min<u64>(r.cycles, st.count("ev.stall_cycles"));
    sched_cycles += static_cast<double>(r.cycles - stalls);
    for (int c = 0; c < vasim::obs::kNumCpiCauses; ++c) {
      const auto k = static_cast<std::size_t>(c);
      cpi[k] += static_cast<double>(r.cpi.slots[k]);
    }
    if (r.dvfs) {
      ++adaptive_jobs;
      epochs += static_cast<double>(r.dvfs->epochs);
      period += r.dvfs->avg_period_permille;
      throughput += r.dvfs->throughput;
    }
    cycles_stepped += static_cast<double>(runs[i].cycles_total);
    queries += runs[i].queries;
    (runs[i].adaptive ? queries_adaptive_replayed : queries_static_replayed) += runs[i].replayed;
  }
  const SpanStore::Totals warm = T("cpu.warmup");
  const SpanStore::Totals meas = T("cpu.measure");
  const SpanStore::Totals next = T("workload.next");
  const SpanStore::Totals pred = T("tep.predict");
  const SpanStore::Totals train = T("tep.train");
  const SpanStore::Totals crit = T("tep.mark_critical");
  const i64 step_ns = warm.ns + meas.ns;
  const double traced_job_ms = ms(T("job").ns);

  const auto add = [&](const char* name, const char* layer, const char* unit, double v,
                       std::string note = "") {
    out.metrics.push_back({name, layer, unit, {v}, std::move(note), true});
  };
  add("workload.next_calls", "workload", "count", static_cast<double>(next.calls),
      "decomposed jobs; warm-started jobs run inside snap.run_from");
  add("workload.next_ms", "workload", "ms", ms(next.ns));
  add("workload.ctor_ms", "workload", "ms", ms(T("workload.ctor").ns));
  add("timing.queries", "timing", "count", static_cast<double>(queries));
  add("timing.query_ns", "timing", "ns",
      ratio(static_cast<double>(T("timing.replay").ns),
            static_cast<double>(queries_static_replayed)),
      "replayed sample of " + std::to_string(queries_static_replayed) + " calls");
  add("timing.query_adaptive_ns", "timing", "ns",
      ratio(static_cast<double>(T("timing.replay_adaptive").ns),
            static_cast<double>(queries_adaptive_replayed)),
      "replayed sample of " + std::to_string(queries_adaptive_replayed) + " calls");
  add("timing.ctor_ms", "timing", "ms", ms(T("timing.ctor").ns));
  add("timing.fault_rate_pct", "timing", "%", ratio(faulty, scheme_committed) * 100.0,
      "simulated");
  add("tep.predict_calls", "tep", "count", static_cast<double>(pred.calls));
  add("tep.train_calls", "tep", "count", static_cast<double>(train.calls));
  add("tep.mark_critical_calls", "tep", "count", static_cast<double>(crit.calls));
  add("tep.ms", "tep", "ms", ms(pred.ns + train.ns + crit.ns));
  add("tep.ctor_ms", "tep", "ms", ms(T("tep.ctor").ns));
  add("tep.accuracy", "tep", "ratio", ratio(handled, actual), "simulated; handled / actual");
  add("tep.false_pos_per_kinstr", "tep", "1/kinstr", ratio(false_pos, pred_committed) * 1000.0,
      "simulated");
  add("cpu.cycles", "cpu", "count", cycles, "simulated, measured windows");
  add("cpu.step_self_ms", "cpu", "ms", ms(warm.self + meas.self),
      "step time minus workload.next and tep.* (oracle included)");
  add("cpu.ns_per_cycle", "cpu", "ns", ratio(static_cast<double>(step_ns), cycles_stepped));
  add("cpu.ctor_ms", "cpu", "ms", ms(T("cpu.ctor").ns));
  add("cpu.ipc", "cpu", "instr/cycle", ratio(committed, cycles), "simulated");
  add("cpu.replays_per_kinstr", "cpu", "1/kinstr", ratio(replays, committed) * 1000.0, "simulated");
  add("cpu.squashes", "cpu", "count", squashes, "simulated");
  add("cpu.l1d_miss_ratio", "cpu", "ratio", ratio(l1d_miss, l1d_all), "simulated");
  add("cpu.l2_miss_ratio", "cpu", "ratio", ratio(l2_miss, l2_all), "simulated");
  add("cpu.bpred_mispredict_ratio", "cpu", "ratio", ratio(br_miss, br_all), "simulated");
  add("cpu.iq_occupancy_avg", "cpu", "entries", ratio(iq_occ, sched_cycles),
      "simulated, per non-stall cycle");
  for (int c = 0; c < vasim::obs::kNumCpiCauses; ++c) {
    const std::string name =
        "cpu.cpi." + std::string(vasim::obs::to_string(static_cast<vasim::obs::CpiCause>(c)));
    out.metrics.push_back({name, "cpu", "cpi",
                           {ratio(cpi[static_cast<std::size_t>(c)],
                                  committed * static_cast<double>(commit_width))},
                           "simulated",
                           true});
  }
  add("core.worker_util", "core", "ratio",
      ratio(job_ms_sum, ref.wall_ms * static_cast<double>(o.workers)), "untraced sweep");
  add("core.queue_wait_ms_p50", "core", "ms", median(start_ms), "untraced sweep, start_ms");
  add("core.result_ms", "core", "ms", ms(T("core.result").ns),
      "result_window + snapshot_stats + energy model");
  add("core.checksum_ms", "core", "ms", checksum_ms, "sweep_checksum, mean of 20");
  add("core.json_ms", "core", "ms", json_ms,
      "write_sweep_json to memory, " + std::to_string(json_bytes) + " bytes, mean of 20");
  add("snap.captures", "snap", "count", static_cast<double>(T("snap.capture").spans));
  add("snap.restores", "snap", "count", static_cast<double>(T("snap.run_from").spans));
  add("snap.bytes", "snap", "bytes", static_cast<double>(snap_bytes));
  add("snap.warmup_cycles_saved", "snap", "count", static_cast<double>(cycles_saved));
  add("snap.capture_ms", "snap", "ms", ms(T("snap.capture").ns),
      "ExperimentRunner::capture, warmup simulation included");
  add("snap.decode_ms", "snap", "ms", ms(T("snap.decode").ns));
  add("adapt.ctor_ms", "adapt", "ms", ms(T("adapt.ctor").ns));
  add("adapt.epochs", "adapt", "count", epochs, "simulated");
  add("adapt.avg_period_permille", "adapt", "permille", ratio(period, adaptive_jobs),
      "simulated, mean over adaptive jobs");
  add("adapt.throughput", "adapt", "instr/cycle", ratio(throughput, adaptive_jobs),
      "simulated, mean over adaptive jobs");
  add("obs.profiler_overhead_pct", "obs", "%", profiler_pct,
      std::to_string(subset.size()) + "-job paper-grid subset, median of 3 interleaved pairs");
  add("obs.timeline_overhead_pct", "obs", "%", timeline_pct,
      std::to_string(subset.size()) + "-job paper-grid subset, median of 3 interleaved pairs");
  add("trace.overhead_pct", "obs", "%", (ratio(traced_job_ms, job_ms_sum) - 1.0) * 100.0,
      "summed traced job spans vs summed untraced job times");

  out.extra["traced_wall_ms"] = json_number(traced_wall_ms);
  out.extra["untraced_wall_ms"] = json_number(ref.wall_ms);
  out.extra["pins"] = json_string(pins.status);
  char hex[24];
  std::snprintf(hex, sizeof hex, "\"%016" PRIx64 "\"", checksum);
  out.extra["sweep_checksum"] = hex;
  if (!o.spans_path.empty()) {
    store.write_chrome(o.spans_path, w);
    out.extra["spans"] = json_string(o.spans_path);
  }
  return out;
}

}  // namespace perfbench
