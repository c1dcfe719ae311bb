// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives: TEP lookup/train, gate simulation, statistical STA, cache
// access, stats counters, trace generation, and whole-pipeline throughput.
//
// The custom main also re-times the StatSet-vs-Registry counter pair with a
// plain chrono loop and records the measured speedup in BENCH_micro.json
// (suppressed by VASIM_JSON=0), so the no-string-lookups-on-the-hot-path
// property is part of the diffable perf trajectory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/adapt/dvfs.hpp"
#include "src/circuit/builders.hpp"
#include "src/circuit/gatesim.hpp"
#include "src/circuit/sta.hpp"
#include "src/common/env.hpp"
#include "src/common/stats.hpp"
#include "src/core/sweep.hpp"
#include "src/core/tep.hpp"
#include "src/cpu/cache.hpp"
#include "src/cpu/pipeline.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/timeline.hpp"
#include "src/timing/fault_model.hpp"
#include "src/workload/profiles.hpp"
#include "src/workload/trace_generator.hpp"

namespace {

using namespace vasim;

/// Replays a pregenerated trace buffer so the timed region is the scheduler
/// kernel (step() loop), not trace synthesis.
class ReplaySource final : public isa::InstructionSource {
 public:
  explicit ReplaySource(const std::vector<isa::DynInst>* buf) : buf_(buf) {}
  bool next(isa::DynInst& out) override {
    out = (*buf_)[i_];
    if (++i_ == buf_->size()) i_ = 0;
    return true;
  }
  [[nodiscard]] std::string name() const override { return "replay"; }

 private:
  const std::vector<isa::DynInst>* buf_;
  std::size_t i_ = 0;
};

const std::vector<isa::DynInst>& kernel_trace_buffer() {
  static const std::vector<isa::DynInst> buf = [] {
    const auto prof = workload::spec2006_profile("sjeng");
    workload::TraceGenerator gen(prof);
    std::vector<isa::DynInst> b(400'000);
    for (isa::DynInst& d : b) gen.next(d);
    return b;
  }();
  return buf;
}

void BM_TepPredict(benchmark::State& state) {
  core::TimingErrorPredictor tep;
  for (Pc pc = 0; pc < 1024; ++pc) tep.train(0x1000 + pc * 4, 0, true, timing::OooStage::kIssueSelect);
  u64 i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tep.predict(0x1000 + (i % 4096) * 4, i, i));
    ++i;
  }
}
BENCHMARK(BM_TepPredict);

void BM_TepTrain(benchmark::State& state) {
  core::TimingErrorPredictor tep;
  u64 i = 0;
  for (auto _ : state) {
    tep.train(0x1000 + (i % 4096) * 4, i, (i & 3) == 0, timing::OooStage::kExecute);
    ++i;
  }
  benchmark::DoNotOptimize(tep.predictions());
}
BENCHMARK(BM_TepTrain);

void BM_GateSimAlu(benchmark::State& state) {
  const circuit::Component alu = circuit::build_simple_alu(32);
  circuit::GateSim sim(&alu.netlist);
  std::vector<u8> in(static_cast<std::size_t>(circuit::input_width(alu)), 0);
  u64 i = 0;
  for (auto _ : state) {
    in[i % in.size()] ^= 1;
    ++i;
    benchmark::DoNotOptimize(sim.evaluate(in));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<u64>(alu.netlist.num_signals()));
}
BENCHMARK(BM_GateSimAlu);

void BM_StatisticalSta(benchmark::State& state) {
  const circuit::Component agen = circuit::build_agen(32, 16);
  const timing::ProcessVariation pv;
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::analyze_statistical(agen.netlist, pv, 8));
  }
}
BENCHMARK(BM_StatisticalSta);

void BM_CacheAccess(benchmark::State& state) {
  cpu::Cache cache(cpu::CacheConfig{32 * 1024, 4, 64, 1});
  Pcg32 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.next_u64() & 0xFFFFF));
  }
}
BENCHMARK(BM_CacheAccess);

void BM_StatSetInc(benchmark::State& state) {
  // The historical hot path: one std::map string lookup per event.
  StatSet stats;
  stats.inc("ev.broadcast", 0);
  for (auto _ : state) {
    stats.inc("ev.broadcast");
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(stats.count("ev.broadcast"));
}
BENCHMARK(BM_StatSetInc);

void BM_RegistryCounterInc(benchmark::State& state) {
  // The interned replacement: the name is resolved once, the loop is a
  // pointer bump.
  obs::Registry reg;
  obs::Counter c = reg.counter("ev.broadcast");
  for (auto _ : state) {
    c.inc();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_RegistryCounterInc);

void BM_TraceGeneration(benchmark::State& state) {
  const auto prof = workload::spec2006_profile("gcc");
  workload::TraceGenerator gen(prof);
  isa::DynInst d;
  for (auto _ : state) {
    gen.next(d);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void BM_PipelineThroughput(benchmark::State& state) {
  const auto prof = workload::spec2006_profile("sjeng");
  for (auto _ : state) {
    workload::TraceGenerator gen(prof);
    cpu::CoreConfig cfg;
    cpu::Pipeline p(cfg, cpu::scheme_fault_free(), &gen, nullptr, nullptr);
    benchmark::DoNotOptimize(p.run(10'000));
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_PipelineThroughput)->Unit(benchmark::kMillisecond);

void BM_PipelineWithFaultsAbs(benchmark::State& state) {
  const auto prof = workload::spec2006_profile("sjeng");
  timing::PathModelConfig pcfg{prof.seed, prof.fr_high_pct / 100.0, prof.fr_low_pct / 100.0};
  const timing::FaultModel fm(pcfg, 0.97);
  for (auto _ : state) {
    workload::TraceGenerator gen(prof);
    core::TimingErrorPredictor tep({}, &fm.environment());
    cpu::CoreConfig cfg;
    cpu::Pipeline p(cfg, cpu::scheme_abs(), &gen, &fm, &tep);
    benchmark::DoNotOptimize(p.run(10'000));
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_PipelineWithFaultsAbs)->Unit(benchmark::kMillisecond);

void BM_SchedKernelCycleLoop(benchmark::State& state) {
  // Steady-state scheduler kernel: construction, warmup, and trace synthesis
  // all happen outside the timed loop; each iteration is one pipeline step.
  ReplaySource src(&kernel_trace_buffer());
  cpu::CoreConfig cfg;
  cpu::Pipeline p(cfg, cpu::scheme_fault_free(), &src, nullptr, nullptr);
  while (p.committed() < 30'000) p.step();
  const u64 before = p.committed();
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(p.committed() - before));
  state.SetLabel("items=committed instructions");
}
BENCHMARK(BM_SchedKernelCycleLoop);

// ---- tracked-results copy ----------------------------------------------------

/// Copies a just-written BENCH_*.json out of the build tree into the tracked
/// bench/results/ directory (VASIM_RESULTS_DIR, injected by CMake), so the
/// repo's perf trajectory updates at bench time without a manual cp.
/// Disabled with VASIM_RESULTS=0; quietly skipped if the directory is absent.
void copy_to_results(const char* fname) {
#ifdef VASIM_RESULTS_DIR
  if (env_u64("VASIM_RESULTS", 1) == 0) return;
  std::ifstream in(fname, std::ios::binary);
  if (!in) return;
  std::ofstream out(std::string(VASIM_RESULTS_DIR) + "/" + fname, std::ios::binary);
  if (!out) return;
  out << in.rdbuf();
#else
  (void)fname;
#endif
}

// ---- stats-overhead record -------------------------------------------------

/// Best-of-`reps` ns/op for `body(iters)` with a steady_clock around it.
template <typename Body>
double best_ns_per_op(const Body& body, u64 iters, int reps) {
  using Clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body(iters);
    const auto t1 = Clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                      static_cast<double>(iters);
    if (ns < best) best = ns;
  }
  return best;
}

/// Writes BENCH_micro.json with the StatSet-vs-Registry increment cost
/// (unless VASIM_JSON=0).  Measured outside google-benchmark so the file's
/// schema stays under our control.
void emit_stats_overhead_json() {
  if (env_u64("VASIM_JSON", 1) == 0) return;
  constexpr u64 kIters = 2'000'000;
  constexpr int kReps = 5;

  StatSet stats;
  stats.inc("ev.broadcast", 0);
  const double map_ns = best_ns_per_op(
      [&stats](u64 n) {
        for (u64 i = 0; i < n; ++i) {
          stats.inc("ev.broadcast");
          benchmark::ClobberMemory();
        }
      },
      kIters, kReps);
  benchmark::DoNotOptimize(stats.count("ev.broadcast"));

  obs::Registry reg;
  obs::Counter c = reg.counter("ev.broadcast");
  const double handle_ns = best_ns_per_op(
      [&c](u64 n) {
        for (u64 i = 0; i < n; ++i) {
          c.inc();
          benchmark::ClobberMemory();
        }
      },
      kIters, kReps);
  benchmark::DoNotOptimize(c.value());

  const double speedup = handle_ns > 0.0 ? map_ns / handle_ns : 0.0;
  std::ofstream out("BENCH_micro.json");
  if (!out) return;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"bench\": \"micro\",\n"
                "  \"schema_version\": 1,\n"
                "  \"statset_inc_ns\": %.3f,\n"
                "  \"registry_inc_ns\": %.3f,\n"
                "  \"registry_speedup\": %.2f\n"
                "}\n",
                map_ns, handle_ns, speedup);
  out << buf;
  out.close();
  copy_to_results("BENCH_micro.json");
  std::printf("[BENCH_micro.json: StatSet::inc %.1f ns, registry handle %.1f ns, %.1fx]\n",
              map_ns, handle_ns, speedup);
}

// ---- scheduler-kernel record -----------------------------------------------

/// Steady-state simulated MIPS of the step() loop (warmup and construction
/// excluded), replaying the shared trace buffer.  `timeline_interval > 0`
/// attaches an interval sampler before warmup, so the timed region measures
/// the sampler's steady-state cost.
double kernel_steady_mips(bool with_faults, u64 measure_commits, u64 timeline_interval = 0) {
  const auto prof = workload::spec2006_profile("sjeng");
  ReplaySource src(&kernel_trace_buffer());
  cpu::CoreConfig cfg;
  timing::PathModelConfig pcfg{prof.seed, prof.fr_high_pct / 100.0, prof.fr_low_pct / 100.0};
  const timing::FaultModel fm(pcfg, 0.97);
  core::TimingErrorPredictor tep({}, &fm.environment());
  cpu::Pipeline p(cfg, with_faults ? cpu::scheme_abs() : cpu::scheme_fault_free(), &src,
                  with_faults ? &fm : nullptr, with_faults ? &tep : nullptr);
  constexpr u64 kWarm = 30'000;
  std::optional<obs::Timeline> tl;
  if (timeline_interval > 0) {
    obs::Timeline::Config tc;
    tc.interval = timeline_interval;
    tc.capacity_hint =
        static_cast<std::size_t>((kWarm + measure_commits) / timeline_interval) + 8;
    tl.emplace(tc, &p.registry());
    p.set_timeline(&*tl, timeline_interval);
  }
  while (p.committed() < kWarm) p.step();
  const auto t0 = std::chrono::steady_clock::now();
  while (p.committed() < kWarm + measure_commits) p.step();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(measure_commits) / std::chrono::duration<double>(t1 - t0).count();
}

/// Writes BENCH_kernel.json: steady-state cycle-loop MIPS for the SoA
/// scheduler kernel against the pre-rewrite numbers (measured with the same
/// replay methodology at the deque/std::map implementation this kernel
/// replaced).  VASIM_KERNEL_REPS=1 gives CI a quick smoke run.
void emit_kernel_json() {
  if (env_u64("VASIM_JSON", 1) == 0) return;
  // Pre-rewrite baselines: window_ deque + cycle-bucketed std::map events.
  constexpr double kBaselineFaultFree = 1'789'389.0;
  constexpr double kBaselineAbs = 1'140'238.0;
  const int reps = static_cast<int>(env_u64("VASIM_KERNEL_REPS", 3));
  const u64 measure = env_u64("VASIM_KERNEL_COMMITS", 300'000);

  double best_ff = 0.0;
  double best_abs = 0.0;
  for (int r = 0; r < reps; ++r) {
    best_ff = std::max(best_ff, kernel_steady_mips(false, measure));
    best_abs = std::max(best_abs, kernel_steady_mips(true, measure));
  }

  std::ofstream out("BENCH_kernel.json");
  if (!out) return;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"bench\": \"sched_kernel\",\n"
                "  \"schema_version\": 1,\n"
                "  \"kernel_mips_fault_free\": %.0f,\n"
                "  \"kernel_mips_abs\": %.0f,\n"
                "  \"baseline_mips_fault_free\": %.0f,\n"
                "  \"baseline_mips_abs\": %.0f,\n"
                "  \"speedup_fault_free\": %.2f,\n"
                "  \"speedup_abs\": %.2f\n"
                "}\n",
                best_ff, best_abs, kBaselineFaultFree, kBaselineAbs,
                best_ff / kBaselineFaultFree, best_abs / kBaselineAbs);
  out << buf;
  out.close();
  copy_to_results("BENCH_kernel.json");
  std::printf("[BENCH_kernel.json: cycle loop %.0f MIPS (%.2fx), abs %.0f MIPS (%.2fx)]\n",
              best_ff, best_ff / kBaselineFaultFree, best_abs, best_abs / kBaselineAbs);
}

// ---- timeline-sampling overhead record ---------------------------------------

/// Writes BENCH_timeline.json: steady-state kernel MIPS with and without an
/// attached interval sampler at the default 10k-commit grain.  The CI guard
/// asserts overhead_pct stays at or under 2%.  VASIM_TIMELINE_REPS /
/// VASIM_TIMELINE_COMMITS shrink the measurement for smoke runs.
void emit_timeline_json() {
  if (env_u64("VASIM_JSON", 1) == 0) return;
  const int reps = static_cast<int>(env_u64("VASIM_TIMELINE_REPS", 3));
  const u64 measure = env_u64("VASIM_TIMELINE_COMMITS", 300'000);
  constexpr u64 kInterval = 10'000;

  double best_off = 0.0;
  double best_on = 0.0;
  for (int r = 0; r < reps; ++r) {
    best_off = std::max(best_off, kernel_steady_mips(true, measure));
    best_on = std::max(best_on, kernel_steady_mips(true, measure, kInterval));
  }
  const double overhead_pct = best_on > 0.0 ? (best_off / best_on - 1.0) * 100.0 : 0.0;

  std::ofstream out("BENCH_timeline.json");
  if (!out) return;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"bench\": \"timeline\",\n"
                "  \"schema_version\": 1,\n"
                "  \"interval\": %llu,\n"
                "  \"measure_commits\": %llu,\n"
                "  \"mips_unsampled\": %.0f,\n"
                "  \"mips_sampled\": %.0f,\n"
                "  \"overhead_pct\": %.2f,\n"
                "  \"windows\": %llu\n"
                "}\n",
                static_cast<unsigned long long>(kInterval),
                static_cast<unsigned long long>(measure), best_off, best_on, overhead_pct,
                static_cast<unsigned long long>(measure / kInterval));
  out << buf;
  out.close();
  copy_to_results("BENCH_timeline.json");
  std::printf("[BENCH_timeline.json: %.0f MIPS unsampled, %.0f MIPS sampled every %lluk "
              "commits, overhead %.2f%%]\n",
              best_off, best_on, static_cast<unsigned long long>(kInterval / 1000),
              overhead_pct);
}

// ---- warm-start sweep record -------------------------------------------------

/// Writes BENCH_snapshot.json: the same supply-sweep grid run straight
/// through and with --reuse-warmup sharing, recording the simulated-warmup
/// reduction and the checksum identity.  The headline witness is the cycle
/// reduction, not wall time: on a box with few cores the shared-warmup
/// capture phase serializes, but the simulated work removed is
/// machine-independent.
void emit_snapshot_json() {
  if (env_u64("VASIM_JSON", 1) == 0) return;
  core::RunnerConfig rc;
  rc.instructions = env_u64("VASIM_SNAPBENCH_INSTR", 20'000);
  rc.warmup = env_u64("VASIM_SNAPBENCH_WARMUP", 40'000);

  // A supply sweep: the fault-free baseline repeats at every vdd and is the
  // shareable portion (its warmup key excludes the supply).
  std::vector<core::SweepJob> jobs;
  const double vdds[] = {0.94, 0.97, 1.00, 1.04, 1.10};
  for (const auto& name : {"bzip2", "gobmk", "sjeng"}) {
    const auto prof = workload::spec2006_profile(name);
    for (const double vdd : vdds) {
      jobs.push_back({prof, std::nullopt, vdd, std::nullopt});
      jobs.push_back({prof, core::scheme_by_name("abs"), vdd, std::nullopt});
    }
  }

  core::SweepRunner straight(rc);
  core::SweepRunner shared(rc);
  shared.set_reuse_warmup(true);
  const core::SweepReport a = straight.run(jobs);
  const core::SweepReport b = shared.run(jobs);
  const u64 ck_a = core::sweep_checksum(a);
  const u64 ck_b = core::sweep_checksum(b);
  if (ck_a != ck_b) {
    std::fprintf(stderr, "BENCH_snapshot: checksum mismatch with warmup reuse on\n");
    std::exit(1);
  }

  // Over the grouped jobs, the straight sweep simulates simulated + saved
  // warmup cycles; the shared sweep simulates only the former.
  const u64 grouped_total = b.warmup_cycles_simulated + b.warmup_cycles_saved;
  const double reduction =
      grouped_total > 0
          ? static_cast<double>(b.warmup_cycles_saved) / static_cast<double>(grouped_total)
          : 0.0;

  std::ofstream out("BENCH_snapshot.json");
  if (!out) return;
  char buf[768];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"bench\": \"snapshot_warm_start\",\n"
                "  \"schema_version\": 1,\n"
                "  \"jobs\": %zu,\n"
                "  \"warmup_groups\": %zu,\n"
                "  \"warmup_cycles_simulated\": %llu,\n"
                "  \"warmup_cycles_saved\": %llu,\n"
                "  \"warmup_reduction\": %.3f,\n"
                "  \"checksum_identical\": true,\n"
                "  \"checksum\": \"%016llx\",\n"
                "  \"wall_ms_straight\": %.1f,\n"
                "  \"wall_ms_reuse\": %.1f\n"
                "}\n",
                jobs.size(), b.warmup_groups,
                static_cast<unsigned long long>(b.warmup_cycles_simulated),
                static_cast<unsigned long long>(b.warmup_cycles_saved), reduction,
                static_cast<unsigned long long>(ck_b), a.wall_ms, b.wall_ms);
  out << buf;
  out.close();
  copy_to_results("BENCH_snapshot.json");
  std::printf("[BENCH_snapshot.json: %zu jobs, %zu shared groups, %llu warmup cycles saved "
              "(%.0f%% of grouped warmup), checksums identical]\n",
              jobs.size(), b.warmup_groups,
              static_cast<unsigned long long>(b.warmup_cycles_saved), reduction * 100.0);
}

// ---- adaptive-clocking frontier record ---------------------------------------

/// Writes BENCH_dvfs.json: the throughput-vs-violation-rate frontier of the
/// closed-loop DVFS policies (docs/adaptive.md) against every static supply
/// point, per benchmark and scheme.  "Throughput" is committed instructions
/// per *nominal* cycle of wall time (equals IPC when the period never
/// moves), so static and adaptive points share one axis.  The headline
/// check: at the controller's violation budget, at least one adaptive
/// policy must beat every static supply point on at least one cell --
/// otherwise the subsystem earns its complexity nowhere and the bench
/// fails loudly.  VASIM_DVFSBENCH_INSTR / _WARMUP shrink the grid for CI.
void emit_dvfs_json() {
  if (env_u64("VASIM_JSON", 1) == 0) return;
  core::RunnerConfig rc;
  rc.instructions = env_u64("VASIM_DVFSBENCH_INSTR", 30'000);
  rc.warmup = env_u64("VASIM_DVFSBENCH_WARMUP", 10'000);

  struct Point {
    std::string benchmark, scheme, policy;
    double vdd = 0.0;
    double ipc = 0.0;
    double throughput = 0.0;      ///< instr per nominal cycle
    double violation_pct = 0.0;   ///< committed-faulty %, shared axis
    double avg_period_permille = 1000.0;
    u64 epochs = 0;
  };
  const double vdds[] = {1.10, 1.04, 0.97};
  const char* policies[] = {"static", "reactive", "predictive"};
  std::vector<Point> grid;
  const double budget_pct = core::RunnerConfig{}.dvfs.target_violation_pct;

  for (const auto& bname : {"bzip2", "sjeng"}) {
    const auto prof = workload::spec2006_profile(bname);
    for (const auto& sname : {"abs", "ep"}) {
      const auto scheme = core::scheme_by_name(sname);
      for (const char* pname : policies) {
        core::RunnerConfig prc = rc;
        prc.dvfs.policy = adapt::dvfs_policy_from_string(pname);
        const core::ExperimentRunner runner(prc);
        for (const double vdd : vdds) {
          const core::RunResult r = runner.run(prof, *scheme, vdd);
          Point p;
          p.benchmark = bname;
          p.scheme = sname;
          p.policy = pname;
          p.vdd = vdd;
          p.ipc = r.ipc;
          p.violation_pct = r.fault_rate_pct;
          if (r.dvfs) {
            p.throughput = r.dvfs->throughput;
            p.avg_period_permille = r.dvfs->avg_period_permille;
            p.epochs = r.dvfs->epochs;
          } else {
            p.throughput = r.ipc;  // period pinned at nominal
          }
          grid.push_back(std::move(p));
        }
      }
    }
  }

  // Per (benchmark, scheme) cell: the best in-budget throughput of each
  // policy; "dominated" when an adaptive policy beats every static point.
  struct Cell {
    std::string benchmark, scheme;
    double best[3] = {0.0, 0.0, 0.0};  ///< per policy, in-budget best
    std::string dominated_by;
  };
  std::vector<Cell> cells;
  bool any_dominated = false;
  for (const Point& p : grid) {
    Cell* cell = nullptr;
    for (Cell& c : cells) {
      if (c.benchmark == p.benchmark && c.scheme == p.scheme) cell = &c;
    }
    if (cell == nullptr) {
      cells.push_back({p.benchmark, p.scheme, {0.0, 0.0, 0.0}, ""});
      cell = &cells.back();
    }
    if (p.violation_pct > budget_pct) continue;  // over budget: off the frontier
    for (int i = 0; i < 3; ++i) {
      if (p.policy == policies[i]) cell->best[i] = std::max(cell->best[i], p.throughput);
    }
  }
  for (Cell& c : cells) {
    const int winner = c.best[2] >= c.best[1] ? 2 : 1;
    if (c.best[winner] > c.best[0]) {
      c.dominated_by = policies[winner];
      any_dominated = true;
    }
  }
  if (!any_dominated) {
    std::fprintf(stderr,
                 "BENCH_dvfs: no adaptive policy beat the static frontier on any cell\n");
    std::exit(1);
  }

  std::ofstream out("BENCH_dvfs.json");
  if (!out) return;
  char buf[512];
  out << "{\n"
      << "  \"bench\": \"dvfs\",\n"
      << "  \"schema_version\": 1,\n"
      << "  \"instr\": " << rc.instructions << ",\n"
      << "  \"warmup\": " << rc.warmup << ",\n";
  std::snprintf(buf, sizeof buf, "  \"violation_budget_pct\": %.3f,\n", budget_pct);
  out << buf << "  \"grid\": [";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Point& p = grid[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"benchmark\": \"%s\", \"scheme\": \"%s\", \"policy\": \"%s\", "
                  "\"vdd\": %.2f, \"ipc\": %.4f, \"throughput\": %.4f, "
                  "\"violation_pct\": %.4f, \"avg_period_permille\": %.1f, \"epochs\": %llu}",
                  i == 0 ? "" : ",", p.benchmark.c_str(), p.scheme.c_str(), p.policy.c_str(),
                  p.vdd, p.ipc, p.throughput, p.violation_pct, p.avg_period_permille,
                  static_cast<unsigned long long>(p.epochs));
    out << buf;
  }
  out << "\n  ],\n  \"frontier\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"benchmark\": \"%s\", \"scheme\": \"%s\", "
                  "\"best_static\": %.4f, \"best_reactive\": %.4f, "
                  "\"best_predictive\": %.4f, \"dominated_by\": %s%s%s}",
                  i == 0 ? "" : ",", c.benchmark.c_str(), c.scheme.c_str(), c.best[0],
                  c.best[1], c.best[2], c.dominated_by.empty() ? "null" : "\"",
                  c.dominated_by.c_str(), c.dominated_by.empty() ? "" : "\"");
    out << buf;
  }
  out << "\n  ],\n  \"frontier_dominated\": true\n}\n";
  out.close();
  copy_to_results("BENCH_dvfs.json");
  std::size_t dominated = 0;
  for (const Cell& c : cells) dominated += c.dominated_by.empty() ? 0 : 1;
  std::printf("[BENCH_dvfs.json: %zu grid points, adaptive beats the static frontier on "
              "%zu/%zu cells at %.1f%% violation budget]\n",
              grid.size(), dominated, cells.size(), budget_pct);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_stats_overhead_json();
  emit_kernel_json();
  emit_timeline_json();
  emit_snapshot_json();
  emit_dvfs_json();
  return 0;
}
