// vasim command-line driver.
//
// Usage:
//   vasim list
//       List the available benchmark profiles and schemes.
//   vasim run --bench <name> --scheme <name> [--vdd V] [--instr N]
//             [--warmup N] [--predictor tep|mre|tvp] [--kanata FILE]
//             [--trace FILE] [--timeline FILE] [--timeline-interval K]
//             [--dvfs static|reactive|predictive] [--epoch N]
//             [--period-min P] [--period-max P]
//             [--stats] [--csv] [--cpi] [--progress] [--profile]
//       Run one simulation and print a summary (or CSV row / full stats).
//       --cpi adds the per-cause commit-slot (CPI stack) table; --trace
//       writes per-instruction Chrome-trace JSON for Perfetto; --timeline
//       samples every registry counter each K commits (default 10000) and
//       writes the per-window series as JSON (or CSV when FILE ends in
//       .csv); --progress prints a live commits/s + ETA line on stderr;
//       --profile attributes the simulator's own wall-time to its pipeline
//       stages (docs/observability.md).
//   vasim sweep --bench <name>|all [--instr N] [--warmup N] [--jobs N]
//               [--json FILE] [--trace FILE]
//               [--timeline-interval K] [--dvfs POLICY] [--epoch N]
//               [--cpi] [--progress] [--profile]
//       Run every scheme at both faulty supplies for one benchmark (or the
//       whole suite), fanned out over a thread pool (VASIM_JOBS or --jobs;
//       results are deterministic at any worker count), optionally dumping
//       the machine-readable JSON result sink to FILE, a Chrome-trace span
//       per job to --trace, per-scheme CPI stacks with --cpi, and a live
//       done/total + ETA line on stderr with --progress;
//       --timeline-interval embeds a per-job timeline in the JSON sink and
//       appends Perfetto counter tracks to --trace; --profile prints
//       per-worker and whole-sweep simulator self-profiles.
//   vasim record --bench <name> --out FILE [--instr N]
//       Capture a committed-path trace to a vasim-trace file.
//   vasim replay --trace FILE --scheme <name> [--vdd V] [--instr N]
//       Drive the pipeline from a recorded (or external) trace file.
//   vasim snap save --bench <name> --scheme <name> --out FILE [--vdd V]
//                   [--instr N] [--warmup N] [--at N] [--predictor tep|mre|tvp]
//       Simulate to the --at commit point (default: end of warmup) and write
//       a checksummed snapshot; resume with `vasim run --from-snapshot`.
//   vasim snap info FILE
//       Pretty-print a snapshot's header, chunk table, CRC status and META.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
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

namespace {

using namespace vasim;

struct Args {
  std::map<std::string, std::string> options;

  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const { return options.count(key) != 0; }
};

// Every option any verb reads.  A name outside both sets is rejected by
// name, so a misspelled flag fails loudly instead of being ignored.
const std::set<std::string> kFlagOptions = {
    "cpi", "csv", "profile", "progress", "reuse-warmup", "stats"};
const std::set<std::string> kValueOptions = {
    "at", "bench", "dvfs", "epoch", "from-snapshot", "instr", "iq", "jobs", "json", "kanata",
    "out", "period-max", "period-min", "phys", "predictor", "rob", "scheme", "seed", "timeline",
    "timeline-interval", "trace", "vdd", "warmup"};

bool parse_options(int start, int argc, char** argv, Args& a) {
  for (int i = start; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    key = key.substr(2);
    if (kFlagOptions.count(key) != 0) {
      a.options[key] = "1";
    } else if (kValueOptions.count(key) == 0) {
      throw std::invalid_argument("unknown option '--" + key + "'");
    } else {
      if (i + 1 >= argc) return false;
      a.options[key] = argv[++i];
    }
  }
  return true;
}

/// The value of --NAME as an unsigned integer no larger than `max`, or
/// `fallback` when the option is absent.  The whole value must be decimal
/// digits: "2k", "-1", "+3" and "" are rejected by name rather than read as
/// whatever prefix parses.
u64 opt_u64(const Args& args, const std::string& name, u64 fallback,
            u64 max = std::numeric_limits<u64>::max()) {
  if (!args.has(name)) return fallback;
  const std::string v = args.get(name, "");
  u64 x = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec == std::errc::invalid_argument || end != v.data() + v.size()) {
    throw std::invalid_argument("option '--" + name + "' expects an unsigned integer, got '" +
                                v + "'");
  }
  if (ec == std::errc::result_out_of_range || x > max) {
    throw std::invalid_argument("option '--" + name + "' expects an unsigned integer no larger " +
                                "than " + std::to_string(max) + ", got '" + v + "'");
  }
  return x;
}

/// The value of --NAME as a finite number, or `fallback` when the option is
/// absent; trailing text ("0.97V"), "inf" and "nan" are rejected by name.
double opt_double(const Args& args, const std::string& name, double fallback) {
  if (!args.has(name)) return fallback;
  const std::string v = args.get(name, "");
  double x = 0.0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc() || end != v.data() + v.size() || !std::isfinite(x)) {
    throw std::invalid_argument("option '--" + name + "' expects a finite number, got '" + v +
                                "'");
  }
  return x;
}

int usage() {
  std::cerr << "usage:\n"
            << "  vasim list\n"
            << "  vasim run --bench <name> --scheme "
               "fault-free|razor|ep|abs|ffs|cds [--vdd V]\n"
            << "            [--instr N] [--warmup N] [--predictor tep|mre|tvp]\n"
            << "            [--iq N] [--rob N] [--phys N]\n"
            << "            [--kanata FILE] [--trace FILE] [--timeline FILE]\n"
            << "            [--timeline-interval K] [--stats] [--csv] [--cpi]\n"
            << "            [--dvfs static|reactive|predictive] [--epoch N]\n"
            << "            [--period-min P] [--period-max P]\n"
            << "            [--progress] [--profile]\n"
            << "  vasim run --from-snapshot FILE [--instr N] [--timeline FILE]\n"
            << "            [--timeline-interval K] [--stats] [--csv] [--cpi]\n"
            << "            [--progress] [--profile]\n"
            << "  vasim sweep --bench <name>|all [--instr N] [--warmup N] [--jobs N]\n"
            << "              [--iq N] [--rob N] [--phys N]\n"
            << "              [--json FILE] [--trace FILE]\n"
            << "              [--timeline-interval K] [--dvfs POLICY] [--epoch N]\n"
            << "              [--period-min P] [--period-max P] [--cpi] [--progress]\n"
            << "              [--reuse-warmup] [--profile]\n"
            << "  vasim snap save --bench <name> --scheme <name> --out FILE [--vdd V]\n"
            << "                  [--instr N] [--warmup N] [--at N] [--predictor tep|mre|tvp]\n"
            << "  vasim snap info FILE\n";
  return 2;
}

int cmd_list() {
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
  }
  rc.timeline_interval = opt_u64(args, "timeline-interval", 0);
  constexpr u64 kIntMax = std::numeric_limits<int>::max();
  rc.core.iq_entries = static_cast<int>(opt_u64(args, "iq", rc.core.iq_entries, kIntMax));
  rc.core.rob_entries = static_cast<int>(opt_u64(args, "rob", rc.core.rob_entries, kIntMax));
  rc.core.phys_regs = static_cast<int>(opt_u64(args, "phys", rc.core.phys_regs, kIntMax));
  cpu::validate_core_config(rc.core);  // fail fast with the named reason
  if (args.has("dvfs")) rc.dvfs.policy = adapt::dvfs_policy_from_string(args.get("dvfs", ""));
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
int write_timeline_file(const obs::Timeline& tl, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << "\n";
    return 2;
  }
  const bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    tl.write_csv(out);
  } else {
    tl.write_json(out);
  }
  std::cout << "timeline with " << tl.windows() << " windows (every " << tl.interval()
            << " commits) written to " << path << "\n";
  return 0;
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
/// --timeline and --profile.  Returns the exit code.
int print_run_report(const Args& args, const core::RunResult& r, const core::RunResult* baseline,
                     int commit_width, const obs::ProfilerHub& hub) {
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
    const int rcio = write_timeline_file(*r.timeline, args.get("timeline", ""));
    if (rcio != 0) return rcio;
  }
  if (args.has("profile")) print_profile_tables(hub);
  return 0;
}

/// The options `run --from-snapshot` reads; the snapshot fixes the rest.
const std::set<std::string> kFromSnapshotOptions = {
    "cpi", "csv", "from-snapshot", "instr", "profile", "progress", "stats", "timeline",
    "timeline-interval"};

int cmd_run_from_snapshot(const Args& args) {
  // An option the resume would ignore is refused by name, before the file
  // is read.
  std::string ignored;
  for (const auto& [key, value] : args.options) {
    if (kFromSnapshotOptions.count(key) == 0) ignored += (ignored.empty() ? " --" : ", --") + key;
  }
  if (!ignored.empty()) throw std::invalid_argument("--from-snapshot does not read" + ignored);
  try {
    const core::RunSnapshot snap = core::RunSnapshot::read_file(args.get("from-snapshot", ""));
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
    return print_run_report(args, r, nullptr, rc.core.commit_width, hub);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}

int cmd_run(const Args& args) {
  if (args.has("from-snapshot")) return cmd_run_from_snapshot(args);
  if (!args.has("bench") || !args.has("scheme")) return usage();
  const std::string scheme_name = args.get("scheme", "");
  std::optional<cpu::SchemeConfig> scheme = core::scheme_by_name(scheme_name);
  if (!scheme) {
    std::cerr << "unknown scheme '" << scheme_name << "'\n";
    return 2;
  }
  if (scheme_name == "fault-free") scheme.reset();  // the baseline wiring: no fault model
  workload::BenchmarkProfile prof;
  try {
    prof = workload::spec2006_profile(args.get("bench", ""));
  } catch (const std::out_of_range& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
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
    kanata_out.open(args.get("kanata", ""));
    if (!kanata_out) {
      std::cerr << "cannot open " << args.get("kanata", "") << "\n";
      return 2;
    }
    sinks.push_back(&kanata.emplace(&kanata_out, 20'000));
  }
  std::ofstream trace_out;
  std::optional<obs::ChromeTraceWriter> trace;
  std::optional<cpu::TraceObserver> trace_obs;
  if (args.has("trace")) {
    trace_out.open(args.get("trace", ""));
    if (!trace_out) {
      std::cerr << "cannot open " << args.get("trace", "") << "\n";
      return 2;
    }
    sinks.push_back(&trace_obs.emplace(&trace.emplace(&trace_out), 20'000));
  }

  const core::RunResult r = core::ExperimentRunner(rc).run(prof, scheme, vdd, sinks);
  std::optional<core::RunResult> baseline;
  if (scheme) {
    // The fault-free comparison run keeps the plain configuration: its
    // telemetry would only shadow the requested scheme's.
    core::RunnerConfig rc_baseline = rc;
    rc_baseline.timeline_interval = 0;
    rc_baseline.progress = false;
    rc_baseline.profiler_hub = nullptr;
    baseline = core::ExperimentRunner(rc_baseline).run(prof, std::nullopt, vdd);
  }
  if (trace && r.timeline != nullptr && r.timeline->windows() > 0) {
    // The instruction spans place one cycle at one microsecond (pid 1);
    // the counter tracks share that timebase on their own process row.
    trace->process_name(2, "timeline");
    r.timeline->append_counter_tracks(*trace, 2, 0, "", 0.0, 1.0);
  }
  if (trace) trace->finish();
  const int rc_report = print_run_report(args, r, baseline ? &*baseline : nullptr,
                                         rc.core.commit_width, hub);
  if (kanata) {
    std::cout << "Kanata trace with " << kanata->instructions_logged()
              << " instructions written to " << args.get("kanata", "") << "\n";
  }
  if (trace) {
    std::cout << "Chrome trace with " << trace_obs->instructions_traced()
              << " instructions written to " << args.get("trace", "")
              << " (open in ui.perfetto.dev)\n";
  }
  return rc_report;
}

int cmd_sweep(const Args& args) {
  if (!args.has("bench")) return usage();
  std::vector<workload::BenchmarkProfile> profiles;
  const std::string which = args.get("bench", "");
  if (which == "all") {
    profiles = workload::spec2006_profiles();
  } else {
    try {
      profiles.push_back(workload::spec2006_profile(which));
    } catch (const std::out_of_range& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }

  const std::size_t workers =
      opt_u64(args, "jobs", core::sweep_workers_from_env(), ThreadPool::kMaxWorkers);
  core::RunnerConfig sweep_rc = runner_config(args);
  obs::ProfilerHub hub;
  if (args.has("profile")) sweep_rc.profiler_hub = &hub;
  core::SweepRunner sweeper(sweep_rc, workers);
  if (args.has("progress")) sweeper.set_progress(true);
  if (args.has("reuse-warmup")) sweeper.set_reuse_warmup(true);

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
  if (args.has("reuse-warmup")) {
    std::cout << "warmup accounting: " << report.warmup_groups
              << " group(s) of jobs sharing a warmup, " << report.warmup_cycles_simulated
              << " warmup cycles in their leaders, " << report.warmup_cycles_saved
              << " in the other members\n";
  }

  if (args.has("json")) {
    std::ofstream out(args.get("json", ""));
    if (!out) {
      std::cerr << "cannot open " << args.get("json", "") << "\n";
      return 2;
    }
    core::write_sweep_json(out, "cli_sweep", report);
    std::cout << "JSON results written to " << args.get("json", "") << "\n";
  }
  if (args.has("trace")) {
    std::ofstream out(args.get("trace", ""));
    if (!out) {
      std::cerr << "cannot open " << args.get("trace", "") << "\n";
      return 2;
    }
    core::write_chrome_trace(out, report);
    std::cout << "Chrome trace written to " << args.get("trace", "")
              << " (open in ui.perfetto.dev)\n";
  }
  return 0;
}

}  // namespace

namespace {

int cmd_record(const Args& args) {
  if (!args.has("bench") || !args.has("out")) return usage();
  workload::BenchmarkProfile prof;
  try {
    prof = workload::spec2006_profile(args.get("bench", ""));
  } catch (const std::out_of_range& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const u64 n = opt_u64(args, "instr", 100000);
  workload::TraceGenerator gen(prof);
  const auto trace = workload::record_trace(gen, n);
  std::ofstream out(args.get("out", ""));
  if (!out) {
    std::cerr << "cannot open " << args.get("out", "") << "\n";
    return 2;
  }
  workload::write_trace(out, trace);
  std::cout << "wrote " << trace.size() << " instructions to " << args.get("out", "") << "\n";
  return 0;
}

int cmd_replay(const Args& args) {
  if (!args.has("trace") || !args.has("scheme")) return usage();
  const auto scheme = core::scheme_by_name(args.get("scheme", ""));
  if (!scheme) {
    std::cerr << "unknown scheme '" << args.get("scheme", "") << "'\n";
    return 2;
  }
  std::ifstream in(args.get("trace", ""));
  if (!in) {
    std::cerr << "cannot open " << args.get("trace", "") << "\n";
    return 2;
  }
  std::unique_ptr<workload::TraceFileSource> src;
  try {
    src = std::make_unique<workload::TraceFileSource>(in, /*loop=*/true);
  } catch (const workload::TraceFormatError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const double vdd = opt_double(args, "vdd", 0.97);
  const core::RunnerConfig rc = runner_config(args);
  timing::PathModelConfig pcfg;
  pcfg.seed = opt_u64(args, "seed", 2013);
  const timing::FaultModel fm(pcfg, vdd);
  core::TimingErrorPredictor tep(rc.tep, &fm.environment());
  cpu::Pipeline pipe(rc.core, *scheme, src.get(), &fm,
                     scheme->use_predictor ? &tep : nullptr);
  const cpu::PipelineResult pr = pipe.run(rc.instructions, rc.warmup);
  std::cout << "trace of " << src->size() << " instructions (looped): committed "
            << pr.committed << " in " << pr.cycles << " cycles (IPC "
            << TextTable::fmt(pr.ipc()) << "), " << pr.stats.count("fault.actual")
            << " faults, " << pr.stats.count("fault.replays") << " replays\n";
  return 0;
}

int cmd_snap_save(const Args& args) {
  if (!args.has("bench") || !args.has("scheme") || !args.has("out")) return usage();
  const auto scheme = core::scheme_by_name(args.get("scheme", ""));
  if (!scheme) {
    std::cerr << "unknown scheme '" << args.get("scheme", "") << "'\n";
    return 2;
  }
  workload::BenchmarkProfile prof;
  try {
    prof = workload::spec2006_profile(args.get("bench", ""));
  } catch (const std::out_of_range& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const double vdd = opt_double(args, "vdd", 0.97);
  const core::RunnerConfig rc = runner_config(args);
  const u64 at = opt_u64(args, "at", rc.warmup);
  // Like run/sweep, the "fault-free" scheme name selects the baseline
  // wiring: no fault model, no predictors.
  const std::optional<cpu::SchemeConfig> scheme_opt =
      scheme->name == "fault-free" ? std::optional<cpu::SchemeConfig>{} : scheme;
  try {
    const core::ExperimentRunner runner(rc);
    const core::RunSnapshot snap = runner.capture(prof, scheme_opt, vdd, at);
    snap.write_file(args.get("out", ""));
    std::cout << "snapshot of " << prof.name << " / " << args.get("scheme", "") << " @ "
              << TextTable::fmt(vdd, 2) << " V at commit " << snap.meta().captured_committed
              << " (cycle " << snap.meta().captured_cycle << ") written to "
              << args.get("out", "") << "\n";
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

int cmd_snap(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string sub = argv[2];
  if (sub == "info") {
    if (argc != 4 || std::string(argv[3]).rfind("--", 0) == 0) return usage();
    return cmd_snap_info(argv[3]);
  }
  if (sub == "save") {
    Args a;
    if (!parse_options(3, argc, argv, a)) return usage();
    return cmd_snap_save(a);
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string verb = argv[1];
    if (verb == "snap") return cmd_snap(argc, argv);
    // An unknown verb gets the usage text before any of its options is read.
    const std::map<std::string, int (*)(const Args&)> verbs = {
        {"list", [](const Args&) { return cmd_list(); }},
        {"run", cmd_run},
        {"sweep", cmd_sweep},
        {"record", cmd_record},
        {"replay", cmd_replay}};
    const auto it = verbs.find(verb);
    Args args;
    if (it == verbs.end() || !parse_options(2, argc, argv, args)) return usage();
    return it->second(args);
  } catch (const std::invalid_argument& e) {
    // Config validation (validate_core_config, option parsing) reports the
    // named constraint; anything else is a real bug and may terminate.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
