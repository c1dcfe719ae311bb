// vasim command-line driver.  `vasim` alone prints the usage; kVerbs below
// holds each verb's synopsis, which also declares the options the verb
// reads (tools/cli_options.hpp): any other option is refused by name before
// a file is opened or a cycle simulated.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/adapt/dvfs.hpp"
#include "src/common/table.hpp"
#include "src/common/thread_pool.hpp"
#include "src/cpu/config.hpp"
#include "src/core/runner.hpp"
#include "src/core/snapshot.hpp"
#include "src/core/sweep.hpp"
#include "src/cpu/trace_sinks.hpp"
#include "src/obs/cpi.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/timeline.hpp"
#include "src/obs/trace.hpp"
#include "src/snap/format.hpp"
#include "src/workload/trace_file.hpp"
#include "src/workload/trace_generator.hpp"
#include "tools/cli_options.hpp"

namespace {

using namespace vasim;

using cli::Args;
using cli::opt_double;
using cli::opt_u64;

int usage();

/// The named benchmark profile; an unknown name is refused by name.
workload::BenchmarkProfile profile_named(const std::string& name) {
  try {
    return workload::spec2006_profile(name);
  } catch (const std::out_of_range& e) {
    throw std::invalid_argument(e.what());
  }
}

/// The wiring --scheme NAME selects: nullopt for "fault-free", the baseline
/// wiring with no fault model and no predictor.
std::optional<cpu::SchemeConfig> scheme_named(const std::string& name) {
  std::optional<cpu::SchemeConfig> scheme = core::scheme_by_name(name);
  if (!scheme) throw std::invalid_argument("unknown scheme '" + name + "'");
  if (name == "fault-free") scheme.reset();
  return scheme;
}

/// `path` opened as a Stream; a path that cannot be opened is refused by name.
template <typename Stream>
Stream open_file(const std::string& path) {
  Stream s(path);
  if (!s) throw std::invalid_argument("cannot open " + path);
  return s;
}

int cmd_list(const Args&) {
  TextTable t({"benchmark", "paper-IPC", "FR%@0.97", "FR%@1.04"});
  for (const auto& p : workload::spec2006_profiles()) {
    t.add_row({p.name, TextTable::fmt(p.paper_ipc, 2), TextTable::fmt(p.fr_high_pct, 2),
               TextTable::fmt(p.fr_low_pct, 2)});
  }
  std::cout << t.render("SPEC2006-like benchmark profiles") << "\n";
  std::cout << "schemes: fault-free razor ep abs ffs cds\n"
            << "supplies: 1.10 (fault-free) 1.04 (low FR) 0.97 (high FR)\n";
  return 0;
}

core::RunnerConfig runner_config(const Args& args) {
  core::RunnerConfig rc;
  rc.instructions = opt_u64(args, "instr", rc.instructions);
  rc.warmup = opt_u64(args, "warmup", rc.warmup);
  const std::string pred = args.get("predictor", "tep");
  if (pred == "mre") {
    rc.predictor = core::PredictorKind::kMre;
  } else if (pred == "tvp") {
    rc.predictor = core::PredictorKind::kTvp;
  } else if (pred != "tep") {
    throw std::invalid_argument("option '--predictor' expects tep, mre or tvp, got '" + pred +
                                "'");
  }
  rc.timeline_interval = opt_u64(args, "timeline-interval", 0);
  constexpr u64 kIntMax = std::numeric_limits<int>::max();
  rc.core.iq_entries = static_cast<int>(opt_u64(args, "iq", rc.core.iq_entries, kIntMax));
  rc.core.rob_entries = static_cast<int>(opt_u64(args, "rob", rc.core.rob_entries, kIntMax));
  rc.core.phys_regs = static_cast<int>(opt_u64(args, "phys", rc.core.phys_regs, kIntMax));
  cpu::validate_core_config(rc.core);  // fail fast with the named reason
  if (args.has("dvfs")) rc.dvfs.policy = adapt::dvfs_policy_from_string(args.get("dvfs"));
  rc.dvfs.epoch = opt_u64(args, "epoch", rc.dvfs.epoch);
  constexpr u64 kU32Max = std::numeric_limits<u32>::max();
  rc.dvfs.period_min_permille =
      static_cast<u32>(opt_u64(args, "period-min", rc.dvfs.period_min_permille, kU32Max));
  rc.dvfs.period_max_permille =
      static_cast<u32>(opt_u64(args, "period-max", rc.dvfs.period_max_permille, kU32Max));
  adapt::validate_dvfs_config(rc.dvfs);  // same fail-fast style as the core knobs
  return rc;
}

/// Default sampling grain when --timeline names a file but no interval.
constexpr u64 kDefaultTimelineInterval = 10'000;

/// Writes a finalized timeline as JSON, or CSV when the path ends in .csv.
void write_timeline_file(const obs::Timeline& tl, const std::string& path) {
  std::ofstream out = open_file<std::ofstream>(path);
  const bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    tl.write_csv(out);
  } else {
    tl.write_json(out);
  }
  std::cout << "timeline with " << tl.windows() << " windows (every " << tl.interval()
            << " commits) written to " << path << "\n";
}

/// The --profile report: whole-run stage attribution, plus a per-worker
/// breakdown when more than one host thread contributed.
void print_profile_tables(const obs::ProfilerHub& hub) {
  const obs::Profiler::Snapshot total = hub.total();
  const double total_ns = static_cast<double>(total.total_ns());
  TextTable t({"phase", "calls", "ms", "share%"});
  for (int p = 0; p < obs::kNumProfPhases; ++p) {
    const auto phase = static_cast<obs::ProfPhase>(p);
    const auto i = static_cast<std::size_t>(p);
    t.add_row({std::string(obs::to_string(phase)), std::to_string(total.calls[i]),
               TextTable::fmt(static_cast<double>(total.ns[i]) / 1e6, 2),
               TextTable::fmt(total_ns == 0.0 ? 0.0
                                              : static_cast<double>(total.ns[i]) / total_ns * 100.0,
                              1)});
  }
  std::cout << t.render("simulator self-profile") << "\n"
            << "(fault-check is part of select, event-wheel part of execute; shares are\n"
            << " of the five top-level phases)\n";
  const std::vector<obs::ProfilerHub::WorkerReport> workers = hub.per_worker();
  if (workers.size() > 1) {
    std::vector<std::string> header = {"worker"};
    for (int p = 0; p < obs::kNumProfPhases; ++p) {
      header.emplace_back(obs::to_string(static_cast<obs::ProfPhase>(p)));
    }
    header.emplace_back("total");
    TextTable wt(header);
    for (const obs::ProfilerHub::WorkerReport& w : workers) {
      std::vector<std::string> row = {std::to_string(w.worker)};
      for (int p = 0; p < obs::kNumProfPhases; ++p) {
        row.push_back(TextTable::fmt(static_cast<double>(w.snap.ns[static_cast<std::size_t>(p)]) / 1e6, 2));
      }
      row.push_back(TextTable::fmt(static_cast<double>(w.snap.total_ns()) / 1e6, 2));
      wt.add_row(row);
    }
    std::cout << wt.render("self-profile per worker (ms)") << "\n";
  }
}

void print_result(const core::RunResult& r, const core::RunResult* baseline, bool csv) {
  if (csv) {
    // Columns mirror the sweep JSON schema (docs/sweep.md) field for field.
    std::cout << r.benchmark << "," << r.scheme << "," << r.vdd << "," << r.committed << ","
              << r.cycles << "," << TextTable::fmt(r.ipc, 4) << ","
              << TextTable::fmt(r.fault_rate_pct, 3) << "," << r.replays << ","
              << TextTable::fmt(r.predictor_accuracy, 4) << ","
              << TextTable::fmt(r.energy.total_nj(), 1) << ","
              << TextTable::fmt(r.energy.edp, 0) << "\n";
    return;
  }
  std::cout << r.benchmark << " / " << r.scheme << " @ " << TextTable::fmt(r.vdd, 2)
            << " V: IPC " << TextTable::fmt(r.ipc) << ", FR " << TextTable::fmt(r.fault_rate_pct, 2)
            << "%, replays " << TextTable::fmt(r.replays, 0) << ", energy "
            << TextTable::fmt(r.energy.total_nj(), 1) << " nJ\n";
  if (baseline != nullptr) {
    const core::Overheads o = core::overhead_vs(*baseline, r);
    std::cout << "  vs fault-free: perf overhead " << TextTable::fmt(o.perf_pct, 2)
              << "%, ED overhead " << TextTable::fmt(o.ed_pct, 2) << "%\n";
  }
  if (r.dvfs) {
    const core::DvfsSummary& d = *r.dvfs;
    std::cout << "  dvfs " << d.policy << ": " << d.epochs << " epochs, period "
              << d.period_final << "‰ (range " << d.period_lo << "-" << d.period_hi
              << "‰, avg " << TextTable::fmt(d.avg_period_permille, 1)
              << "‰), throughput " << TextTable::fmt(d.throughput, 4)
              << " instr/nominal-cycle\n";
  }
}

void print_cpi_table(const std::string& title, const obs::CpiStack& cpi, int commit_width,
                     u64 committed) {
  TextTable t({"cause", "slots", "cpi", "share%"});
  const u64 total = cpi.total();
  for (int c = 0; c < obs::kNumCpiCauses; ++c) {
    const auto cause = static_cast<obs::CpiCause>(c);
    const u64 slots = cpi[cause];
    if (slots == 0 && cause != obs::CpiCause::kBase) continue;
    t.add_row({std::string(obs::to_string(cause)), std::to_string(slots),
               TextTable::fmt(cpi.cpi_of(cause, commit_width, committed), 4),
               TextTable::fmt(total == 0 ? 0.0
                                         : static_cast<double>(slots) /
                                               static_cast<double>(total) * 100.0,
                              1)});
  }
  std::cout << t.render("CPI stack: " + title) << "\n";
}

/// Everything `vasim run` prints after the simulation, with or without
/// --from-snapshot: the result line (or CSV row), then --stats, --cpi,
/// --timeline and --profile.
void print_run_report(const Args& args, const core::RunResult& r,
                      const core::RunResult* baseline, int commit_width,
                      const obs::ProfilerHub& hub) {
  if (args.has("csv")) {
    std::cout << "benchmark,scheme,vdd,committed,cycles,ipc,fault_rate_pct,replays,"
                 "predictor_accuracy,energy_nj,edp\n";
  }
  print_result(r, baseline, args.has("csv"));
  if (args.has("stats")) std::cout << "\n" << r.stats.to_string();
  if (args.has("cpi")) {
    print_cpi_table(r.benchmark + "/" + r.scheme, r.cpi, commit_width, r.committed);
  }
  if (args.has("timeline") && r.timeline != nullptr) {
    write_timeline_file(*r.timeline, args.get("timeline"));
  }
  if (args.has("profile")) print_profile_tables(hub);
}

int cmd_run_from_snapshot(const Args& args) {
  try {
    const core::RunSnapshot snap = core::RunSnapshot::read_file(args.get("from-snapshot"));
    const core::RunMeta& m = snap.meta();
    // The runner configuration is rebuilt from META so the resume is
    // warmup-compatible by construction; only the measurement length may be
    // overridden from the command line.
    core::RunnerConfig rc;
    rc.instructions = opt_u64(args, "instr", m.instructions);
    rc.warmup = m.warmup;
    rc.core = m.core;
    rc.tep = m.tep;
    rc.predictor = m.predictor;
    rc.check_semantics = m.check_semantics;
    rc.commit_trail_stride = m.commit_trail_stride;
    rc.dvfs = m.dvfs;
    rc.timeline_interval = opt_u64(args, "timeline-interval", 0);
    if (args.has("timeline") && rc.timeline_interval == 0) {
      rc.timeline_interval = kDefaultTimelineInterval;
    }
    rc.progress = args.has("progress");
    obs::ProfilerHub hub;
    if (args.has("profile")) rc.profiler_hub = &hub;
    const core::RunResult r = core::ExperimentRunner(rc).run_from(snap);
    print_run_report(args, r, nullptr, rc.core.commit_width, hub);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}

/// What `run` and `replay` share once the workload is chosen: the
/// --scheme run, its fault-free comparison, the trace sinks and the report.
/// Non-null `source` and `base_source` feed the two runs instead of the
/// profile's generator; --trace then names that input, so no Chrome trace
/// is written.
void run_and_report(const Args& args, const workload::BenchmarkProfile& prof,
                    isa::InstructionSource* source, isa::InstructionSource* base_source) {
  const std::optional<cpu::SchemeConfig> scheme = scheme_named(args.get("scheme"));
  const double vdd = opt_double(args, "vdd", 0.97);
  core::RunnerConfig rc = runner_config(args);
  if (args.has("timeline") && rc.timeline_interval == 0) {
    rc.timeline_interval = kDefaultTimelineInterval;
  }
  rc.progress = args.has("progress");
  obs::ProfilerHub hub;
  if (args.has("profile")) rc.profiler_hub = &hub;

  // Trace writers ride the run as event sinks; both can watch the same run.
  std::vector<cpu::SchedHooks*> sinks;
  std::ofstream kanata_out;
  std::optional<cpu::KanataTraceWriter> kanata;
  if (args.has("kanata")) {
    kanata_out = open_file<std::ofstream>(args.get("kanata"));
    sinks.push_back(&kanata.emplace(&kanata_out, 20'000));
  }
  std::ofstream trace_out;
  std::optional<obs::ChromeTraceWriter> trace;
  std::optional<cpu::TraceObserver> trace_obs;
  if (source == nullptr && args.has("trace")) {
    trace_out = open_file<std::ofstream>(args.get("trace"));
    sinks.push_back(&trace_obs.emplace(&trace.emplace(&trace_out), 20'000));
  }

  const core::RunResult r = core::ExperimentRunner(rc).run(prof, scheme, vdd, sinks, source);
  std::optional<core::RunResult> baseline;
  if (scheme) {
    // The fault-free comparison run keeps the plain configuration: its
    // telemetry would only shadow the requested scheme's.
    core::RunnerConfig rc_baseline = rc;
    rc_baseline.timeline_interval = 0;
    rc_baseline.progress = false;
    rc_baseline.profiler_hub = nullptr;
    baseline = core::ExperimentRunner(rc_baseline).run(prof, std::nullopt, vdd, {}, base_source);
  }
  if (trace && r.timeline != nullptr && r.timeline->windows() > 0) {
    // The instruction spans place one cycle at one microsecond (pid 1);
    // the counter tracks share that timebase on their own process row.
    trace->process_name(2, "timeline");
    r.timeline->append_counter_tracks(*trace, 2, 0, "", 0.0, 1.0);
  }
  if (trace) trace->finish();
  print_run_report(args, r, baseline ? &*baseline : nullptr, rc.core.commit_width, hub);
  if (kanata) {
    std::cout << "Kanata trace with " << kanata->instructions_logged()
              << " instructions written to " << args.get("kanata") << "\n";
  }
  if (trace) {
    std::cout << "Chrome trace with " << trace_obs->instructions_traced()
              << " instructions written to " << args.get("trace")
              << " (open in ui.perfetto.dev)\n";
  }
}

int cmd_run(const Args& args) {
  if (!args.has("bench") || !args.has("scheme")) return usage();
  run_and_report(args, profile_named(args.get("bench")), nullptr, nullptr);
  return 0;
}

int cmd_sweep(const Args& args) {
  if (!args.has("bench")) return usage();
  const std::string which = args.get("bench");
  const std::vector<workload::BenchmarkProfile> profiles =
      which == "all" ? workload::spec2006_profiles()
                     : std::vector<workload::BenchmarkProfile>{profile_named(which)};

  const std::size_t workers =
      opt_u64(args, "jobs", core::sweep_workers_from_env(), ThreadPool::kMaxWorkers);
  core::RunnerConfig sweep_rc = runner_config(args);
  obs::ProfilerHub hub;
  if (args.has("profile")) sweep_rc.profiler_hub = &hub;
  core::SweepRunner sweeper(sweep_rc, workers);
  if (args.has("progress")) sweeper.set_progress(true);

  // (fault-free + every scheme) x both faulty supplies per profile, one
  // thread-pooled grid; results come back in submission order.
  const core::SweepReport report = sweeper.run(core::paper_grid(profiles));

  const int commit_width = sweeper.config().core.commit_width;
  std::size_t at = 0;
  for (const auto& prof : profiles) {
    for (const double vdd : core::kPaperSupplies) {
      const std::size_t base_at = at;
      const core::RunResult& base = report.jobs[at++].result;
      TextTable t({"scheme", "IPC", "FR%", "replays", "perf-ovh%", "ED-ovh%"});
      t.add_row({"fault-free", TextTable::fmt(base.ipc), "-", "-", "0.00", "0.00"});
      for (std::size_t s = 0; s < core::comparative_schemes().size(); ++s) {
        const core::RunResult& r = report.jobs[at++].result;
        const core::Overheads o = core::overhead_vs(base, r);
        t.add_row({r.scheme, TextTable::fmt(r.ipc), TextTable::fmt(r.fault_rate_pct, 2),
                   TextTable::fmt(r.replays, 0), TextTable::fmt(o.perf_pct, 2),
                   TextTable::fmt(o.ed_pct, 2)});
      }
      std::cout << t.render(prof.name + " @ " + TextTable::fmt(vdd, 2) + " V") << "\n";
      if (args.has("cpi")) {
        // One row per scheme, one column per cause: where every lost commit
        // slot went, in cycles-per-instruction units.
        std::vector<std::string> header = {"scheme"};
        for (int c = 0; c < obs::kNumCpiCauses; ++c) {
          header.emplace_back(obs::to_string(static_cast<obs::CpiCause>(c)));
        }
        header.emplace_back("cpi");
        TextTable ct(header);
        for (std::size_t j = base_at; j < at; ++j) {
          const core::RunResult& r = report.jobs[j].result;
          std::vector<std::string> row = {r.scheme};
          for (int c = 0; c < obs::kNumCpiCauses; ++c) {
            row.push_back(TextTable::fmt(
                r.cpi.cpi_of(static_cast<obs::CpiCause>(c), commit_width, r.committed), 3));
          }
          row.push_back(TextTable::fmt(
              r.committed == 0 ? 0.0
                               : static_cast<double>(r.cycles) / static_cast<double>(r.committed),
              3));
          ct.add_row(row);
        }
        std::cout << ct.render("CPI stacks: " + prof.name + " @ " + TextTable::fmt(vdd, 2) + " V")
                  << "\n";
      }
    }
  }
  std::cout << report.jobs.size() << " runs (" << report.simulations << " simulations) in "
            << TextTable::fmt(report.wall_ms, 0) << " ms on " << report.workers
            << " worker(s)\n";
  if (args.has("profile")) print_profile_tables(hub);

  if (args.has("json")) {
    std::ofstream out = open_file<std::ofstream>(args.get("json"));
    core::write_sweep_json(out, "cli_sweep", report);
    std::cout << "JSON results written to " << args.get("json") << "\n";
  }
  if (args.has("trace")) {
    std::ofstream out = open_file<std::ofstream>(args.get("trace"));
    core::write_chrome_trace(out, report);
    std::cout << "Chrome trace written to " << args.get("trace")
              << " (open in ui.perfetto.dev)\n";
  }
  return 0;
}

int cmd_record(const Args& args) {
  if (!args.has("bench") || !args.has("out")) return usage();
  const u64 n = opt_u64(args, "instr", 100000);
  workload::TraceGenerator gen(profile_named(args.get("bench")));
  const auto trace = workload::record_trace(gen, n);
  std::ofstream out = open_file<std::ofstream>(args.get("out"));
  workload::write_trace(out, trace);
  std::cout << "wrote " << trace.size() << " instructions to " << args.get("out") << "\n";
  return 0;
}

int cmd_replay(const Args& args) {
  if (!args.has("trace") || !args.has("scheme")) return usage();
  std::ifstream in = open_file<std::ifstream>(args.get("trace"));
  std::optional<workload::TraceFileSource> trace;
  try {
    trace.emplace(in, /*loop=*/true);
  } catch (const workload::TraceFormatError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  // The fault-free comparison replays its own copy from the start.
  workload::TraceFileSource base_trace = *trace;
  // The default profile only names the job and calibrates its fault model:
  // the 8%/2% fault-rate targets, seeded by --seed.
  workload::BenchmarkProfile prof;
  prof.name = "trace-file";
  prof.seed = opt_u64(args, "seed", prof.seed);
  run_and_report(args, prof, &*trace, &base_trace);
  return 0;
}

int cmd_snap_save(const Args& args) {
  if (!args.has("bench") || !args.has("scheme") || !args.has("out")) return usage();
  const std::optional<cpu::SchemeConfig> scheme = scheme_named(args.get("scheme"));
  const workload::BenchmarkProfile prof = profile_named(args.get("bench"));
  const double vdd = opt_double(args, "vdd", 0.97);
  const core::RunnerConfig rc = runner_config(args);
  const u64 at = opt_u64(args, "at", rc.warmup);
  try {
    const core::ExperimentRunner runner(rc);
    const core::RunSnapshot snap = runner.capture(prof, scheme, vdd, at);
    snap.write_file(args.get("out"));
    std::cout << "snapshot of " << prof.name << " / " << args.get("scheme") << " @ "
              << TextTable::fmt(vdd, 2) << " V at commit " << snap.meta().captured_committed
              << " (cycle " << snap.meta().captured_cycle << ") written to "
              << args.get("out") << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}

int cmd_snap_info(const std::string& path) {
  snap::SnapshotInfo info;
  try {
    info = snap::read_snapshot_info(path);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  std::cout << path << ": snapshot format v" << info.format_version << ", " << info.file_size
            << " bytes, endianness " << (info.endian_ok ? "ok" : "MISMATCH") << "\n";
  TextTable t({"chunk", "version", "bytes", "crc"});
  bool all_crc_ok = info.endian_ok;
  for (const snap::ChunkInfo& c : info.chunks) {
    all_crc_ok = all_crc_ok && c.crc_ok;
    char crc[32];
    std::snprintf(crc, sizeof crc, c.crc_ok ? "%08x" : "%08x MISMATCH", c.crc_stored);
    t.add_row({snap::tag_name(c.tag), std::to_string(c.version), std::to_string(c.size), crc});
  }
  std::cout << t.render("chunks") << "\n";
  if (!all_crc_ok) {
    std::cerr << "snapshot is damaged; it will be rejected on load\n";
    return 2;
  }
  try {
    const core::RunSnapshot s = core::RunSnapshot::read_file(path);
    const core::RunMeta& m = s.meta();
    TextTable mt({"field", "value"});
    mt.add_row({"benchmark", m.profile.name});
    mt.add_row({"scheme", m.fault_free ? "fault-free (baseline wiring)" : m.scheme.name});
    mt.add_row({"vdd", TextTable::fmt(m.vdd, 2)});
    mt.add_row({"warmup / instructions",
                std::to_string(m.warmup) + " / " + std::to_string(m.instructions)});
    mt.add_row({"captured at commit", std::to_string(m.captured_committed)});
    mt.add_row({"captured at cycle", std::to_string(m.captured_cycle)});
    mt.add_row({"measurement base", m.base_captured
                                        ? "captured (commit " + std::to_string(m.base_committed) + ")"
                                        : "pre-warmup (re-derived on resume)"});
    mt.add_row({"semantics checker", m.check_semantics ? "attached" : "off"});
    mt.add_row({"dvfs", m.dvfs.adaptive()
                            ? std::string(adapt::to_string(m.dvfs.policy)) + " (epoch " +
                                  std::to_string(m.dvfs.epoch) + ", period " +
                                  std::to_string(m.dvfs.period_min_permille) + "-" +
                                  std::to_string(m.dvfs.period_max_permille) + " permille)"
                            : "static"});
    char key[32];
    std::snprintf(key, sizeof key, "%016llx", static_cast<unsigned long long>(m.warmup_key));
    mt.add_row({"warmup key", key});
    std::cout << mt.render("META") << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}

/// One verb: the words that select it, how a refusal names it, and its
/// synopsis, which declares every option it reads.
struct Verb {
  std::string_view words;
  std::string_view who;
  std::string_view synopsis;
  int (*cmd)(const Args&);
};

// With --from-snapshot, `run` takes its workload and configuration from the
// snapshot, so it reads a shorter list of its own.
constexpr Verb kVerbs[] = {
    {"list", "list", "", cmd_list},
    {"run", "run",
     "--bench <name> --scheme fault-free|razor|ep|abs|ffs|cds [--vdd V]\n"
     "[--instr N] [--warmup N] [--predictor tep|mre|tvp] [--iq N] [--rob N] [--phys N]\n"
     "[--kanata FILE] [--trace FILE] [--timeline FILE] [--timeline-interval K]\n"
     "[--dvfs static|reactive|predictive] [--epoch N] [--period-min P] [--period-max P]\n"
     "[--stats] [--csv] [--cpi] [--progress] [--profile]",
     cmd_run},
    {"run --from-snapshot", "--from-snapshot",
     "FILE [--instr N] [--timeline FILE] [--timeline-interval K]\n"
     "[--stats] [--csv] [--cpi] [--progress] [--profile]",
     cmd_run_from_snapshot},
    {"sweep", "sweep",
     "--bench <name>|all [--instr N] [--warmup N] [--jobs N]\n"
     "[--predictor tep|mre|tvp] [--iq N] [--rob N] [--phys N]\n"
     "[--json FILE] [--trace FILE] [--timeline-interval K]\n"
     "[--dvfs static|reactive|predictive] [--epoch N] [--period-min P] [--period-max P]\n"
     "[--cpi] [--progress] [--profile]",
     cmd_sweep},
    {"record", "record", "--bench <name> --out FILE [--instr N]", cmd_record},
    {"replay", "replay",
     "--trace FILE --scheme <name> [--seed S] [--vdd V]\n"
     "[--instr N] [--warmup N] [--predictor tep|mre|tvp] [--iq N] [--rob N] [--phys N]\n"
     "[--kanata FILE] [--timeline FILE] [--timeline-interval K]\n"
     "[--dvfs static|reactive|predictive] [--epoch N] [--period-min P] [--period-max P]\n"
     "[--stats] [--csv] [--cpi] [--progress] [--profile]",
     cmd_replay},
    {"snap save", "snap save",
     "--bench <name> --scheme <name> --out FILE [--vdd V] [--at N]\n"
     "[--instr N] [--warmup N] [--predictor tep|mre|tvp] [--iq N] [--rob N] [--phys N]\n"
     "[--timeline-interval K]\n"
     "[--dvfs static|reactive|predictive] [--epoch N] [--period-min P] [--period-max P]",
     cmd_snap_save},
};

cli::OptionSet reads_of(const Verb& v) {
  return cli::declared_options(std::string(v.words) + " " + std::string(v.synopsis));
}

int usage() {
  std::cerr << "usage:\n";
  for (const Verb& v : kVerbs) {
    const std::string head = "  vasim " + std::string(v.words) + (v.synopsis.empty() ? "" : " ");
    std::cerr << cli::usage_line(head, v.synopsis) << "\n";
  }
  std::cerr << "  vasim snap info FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    std::string words = argv[1];
    int first = 2;
    if (words == "snap" && argc >= 3) {
      words += " " + std::string(argv[2]);
      first = 3;
      if (words == "snap info") {
        if (argc != 4 || std::string_view(argv[3]).rfind("--", 0) == 0) return usage();
        return cmd_snap_info(argv[3]);
      }
    }
    if (words == "run" && std::find(argv + first, argv + argc,
                                    std::string_view("--from-snapshot")) != argv + argc) {
      words += " --from-snapshot";
    }
    // An unknown verb gets the usage text before any of its options is read.
    const Verb* verb = std::find_if(std::begin(kVerbs), std::end(kVerbs),
                                    [&](const Verb& v) { return v.words == words; });
    if (verb == std::end(kVerbs)) return usage();
    cli::OptionSet known;
    for (const Verb& v : kVerbs) {
      const cli::OptionSet reads = reads_of(v);
      known.insert(reads.begin(), reads.end());
    }
    Args args;
    if (!cli::parse_options(first, argc, argv, reads_of(*verb), known, verb->who, args)) {
      return usage();
    }
    return verb->cmd(args);
  } catch (const std::invalid_argument& e) {
    // Option parsing and config validation (validate_core_config) report the
    // named constraint; anything else is a real bug and may terminate.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
