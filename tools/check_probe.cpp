// check_probe: seeded randomized semantics probe with automatic shrinking.
//
// Draws (machine shape, workload, scheme, supply) cases from the same seed
// derivations as the fuzz test suites, runs each with the SemanticsChecker
// attached, and on the first violation shrinks the case with the bisection
// shrinker (src/check/shrink.hpp) before printing a minimal reproduction:
// an exact self-repro command line plus the nearest `vasim`-replayable one.
//
//   check_probe --mode config            # fuzz machine shapes (default)
//   check_probe --mode program           # fuzz mini-ISA programs
//   check_probe --seed 90210             # probe one specific seed
//   check_probe --iters 50               # widen the seed range
//   check_probe --seed 3 --set instr=800,warmup=0,rob=16   # replay a repro
//
// Exit status: 0 when every probe is clean, 1 when a violation survived
// shrinking (the repro has been printed), 2 on usage errors.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/check/shrink.hpp"
#include "src/core/runner.hpp"
#include "src/isa/assembler.hpp"
#include "src/isa/executor.hpp"
#include "tests/fuzz_util.hpp"
#include "tools/cli_options.hpp"

using namespace vasim;

namespace {

using Overrides = std::map<std::string, u64>;

u64 get_or(const Overrides& ov, const char* key, u64 dflt) {
  const auto it = ov.find(key);
  return it == ov.end() ? dflt : it->second;
}

/// Identity of one probe run, for the repro printout.  `dims` holds the
/// final value of every shrinkable dimension -- the shrinker must start
/// from the shape that actually failed, not from fixed maxima.
struct RunIdentity {
  std::string bench;
  std::string scheme;
  double vdd = 0.0;
  bool squash_refetch = false;
  Overrides dims;
};

/// Config-mode probe: the case test_fuzz draws from `seed`, so corpus seeds
/// are shared between the suite and this tool.  Returns the failure
/// description, or nullopt when the run is clean.
std::optional<std::string> config_failure(u64 seed, const Overrides& ov, RunIdentity* id) {
  auto [cfg, prof, scheme, vdd] = fuzzutil::draw_config_case(seed);

  // Shrinkable dimensions override the drawn shape (widths stay tied).
  cfg.issue_width = static_cast<int>(get_or(ov, "width", static_cast<u64>(cfg.issue_width)));
  cfg.fetch_width = cfg.issue_width;
  cfg.dispatch_width = cfg.issue_width;
  cfg.commit_width = cfg.issue_width;
  cfg.rob_entries = static_cast<int>(get_or(ov, "rob", static_cast<u64>(cfg.rob_entries)));
  cfg.iq_entries = std::min(
      cfg.rob_entries, static_cast<int>(get_or(ov, "iq", static_cast<u64>(cfg.iq_entries))));
  const u64 instr = get_or(ov, "instr", 6000);
  const u64 warmup = get_or(ov, "warmup", 3000);

  if (id != nullptr) {
    id->bench = prof.name;
    id->scheme = scheme.name;
    id->vdd = vdd;
    id->squash_refetch = scheme.recovery == cpu::RecoveryModel::kSquashRefetch;
    id->dims = {{"instr", instr},
                {"warmup", warmup},
                {"rob", static_cast<u64>(cfg.rob_entries)},
                {"iq", static_cast<u64>(cfg.iq_entries)},
                {"width", static_cast<u64>(cfg.issue_width)}};
  }

  core::RunnerConfig rc;
  rc.instructions = instr;
  rc.warmup = warmup;
  rc.core = cfg;
  rc.check_semantics = true;  // a violation throws with the checker's report
  const core::RunResult r = core::ExperimentRunner(rc).run(prof, scheme, vdd);
  if (r.committed != instr) {
    return "committed " + std::to_string(r.committed) + " != target " + std::to_string(instr);
  }
  return std::nullopt;
}

/// Program-mode probe: the case test_program_fuzz draws from `seed`, with
/// the program's size caps as the shrinkable dimensions -- smaller caps
/// mean smaller programs.
std::optional<std::string> program_failure(u64 seed, const Overrides& ov, RunIdentity* id) {
  const fuzzutil::ProgramCaps caps{get_or(ov, "loops", 4), get_or(ov, "trip", 30),
                                   get_or(ov, "body", 8)};
  const auto [source, scheme, model_wrong_path] = fuzzutil::draw_program_case(seed, caps);
  const isa::Program prog = isa::assemble(source);
  isa::FunctionalCore ref(&prog);
  isa::DynInst d;
  u64 dynamic_count = 0;
  while (ref.next(d)) ++dynamic_count;

  if (id != nullptr) {
    id->bench = "<program>";
    id->scheme = scheme.name;
    id->vdd = 0.97;
    id->squash_refetch = scheme.recovery == cpu::RecoveryModel::kSquashRefetch;
    id->dims = {{"loops", caps.loops}, {"trip", caps.trip}, {"body", caps.body}};
  }

  // The profile only names the job and calibrates its fault model: 10% / 3%
  // faulty paths at 0.97 / 1.04 V, seeded by the probe seed.
  workload::BenchmarkProfile prof;
  prof.seed = seed;
  prof.fr_high_pct = 10.0;
  prof.fr_low_pct = 3.0;
  core::RunnerConfig rc;
  rc.instructions = 10 * dynamic_count;
  rc.warmup = 0;
  rc.core.model_wrong_path = model_wrong_path;
  rc.check_semantics = true;  // a violation throws with the checker's report
  isa::FunctionalCore src(&prog);
  const core::RunResult r = core::ExperimentRunner(rc).run(prof, scheme, 0.97, {}, &src);
  if (r.committed != dynamic_count) {
    return "committed " + std::to_string(r.committed) + " != architectural " +
           std::to_string(dynamic_count);
  }
  return std::nullopt;
}

check::ShrinkSpec initial_spec(const std::string& mode, const Overrides& dims) {
  if (mode == "program") {
    return {{"loops", get_or(dims, "loops", 4), 1},
            {"trip", get_or(dims, "trip", 30), 1},
            {"body", get_or(dims, "body", 8), 1}};
  }
  return {{"instr", get_or(dims, "instr", 6000), 50},
          {"warmup", get_or(dims, "warmup", 3000), 0},
          {"rob", get_or(dims, "rob", 128), 16},
          {"iq", get_or(dims, "iq", 32), 8},
          {"width", get_or(dims, "width", 8), 1}};
}

Overrides to_overrides(const check::ShrinkSpec& spec) {
  Overrides ov;
  for (const check::ShrinkDim& d : spec) ov[d.name] = d.value;
  return ov;
}

/// Runs one probe, folding exceptions (deadlock watchdog, assembler errors
/// on shrunk programs...) into an ordinary failure description so the
/// shrinker can keep probing.
template <typename Probe>
std::optional<std::string> run_probe(Probe probe, u64 seed, const Overrides& ov,
                                     RunIdentity* id) {
  try {
    return probe(seed, ov, id);
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

constexpr std::string_view kSynopsis =
    "[--mode config|program] [--seed K[,K...]] [--iters N]\n"
    "[--set k=v[,k=v...]] [--no-shrink]";

int usage() {
  std::fprintf(stderr, "%s\n", cli::usage_line("usage: check_probe ", kSynopsis).c_str());
  return 2;
}

/// The comma-separated items of `list`.
std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> items;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) items.push_back(item);
  return items;
}

struct ProbeArgs {
  std::string mode;
  std::vector<u64> seeds;  ///< empty: the mode's default seed range
  u64 iters = 0;
  Overrides sets;
  bool shrink = true;
};

/// Reads the command line into `out`, refusing every malformed value by
/// name; false means print the usage.
bool read_args(int argc, char** argv, ProbeArgs& out) {
  const cli::OptionSet options = cli::declared_options(kSynopsis);
  cli::Args args;
  if (!cli::parse_options(1, argc, argv, options, options, "check_probe", args)) return false;
  out.mode = args.get("mode", "config");
  if (out.mode != "config" && out.mode != "program") {
    throw std::invalid_argument("option '--mode' expects config or program, got '" + out.mode +
                                "'");
  }
  for (const std::string& item : split_commas(args.get("seed"))) {
    out.seeds.push_back(cli::parse_u64("option '--seed'", item));
  }
  // The seed range is allocated up front: a bound keeps a typo from asking
  // for terabytes.
  out.iters = cli::opt_u64(args, "iters", 10, 1'000'000);
  const check::ShrinkSpec dims = initial_spec(out.mode, {});
  for (const std::string& item : split_commas(args.get("set"))) {
    const std::size_t eq = item.find('=');
    const std::string key = item.substr(0, eq);
    if (std::none_of(dims.begin(), dims.end(),
                     [&](const check::ShrinkDim& d) { return d.name == key; })) {
      std::string names;
      for (const check::ShrinkDim& d : dims) names += (names.empty() ? "" : ", ") + d.name;
      throw std::invalid_argument("option '--set' expects a shrink dimension of mode " +
                                  out.mode + " (" + names + "), got '" + key + "'");
    }
    if (eq == std::string::npos) {
      throw std::invalid_argument("option '--set' expects " + key + "=N, got '" + item + "'");
    }
    // Every dimension is an int-sized machine, program or run length.
    out.sets[key] = cli::parse_u64("option '--set'", item.substr(eq + 1),
                                   std::numeric_limits<int>::max());
  }
  out.shrink = !args.has("no-shrink");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ProbeArgs args;
  try {
    if (!read_args(argc, argv, args)) return usage();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const std::string& mode = args.mode;
  const auto probe = mode == "program" ? program_failure : config_failure;
  const std::vector<u64> seeds =
      args.seeds.empty() ? fuzzutil::seeds("probe", mode == "program" ? 101 : 1, args.iters)
                         : args.seeds;

  for (const u64 seed : seeds) {
    RunIdentity id;
    const auto failure = run_probe(probe, seed, args.sets, &id);
    if (!failure) {
      std::printf("ok   mode=%s seed=%" PRIu64 " (%s/%s vdd=%.2f)\n", mode.c_str(), seed,
                  id.bench.c_str(), id.scheme.c_str(), id.vdd);
      continue;
    }
    std::printf("FAIL mode=%s seed=%" PRIu64 " (%s/%s vdd=%.2f)\n%s\n", mode.c_str(), seed,
                id.bench.c_str(), id.scheme.c_str(), id.vdd, failure->c_str());

    check::ShrinkSpec spec = initial_spec(mode, id.dims);
    check::ShrinkStats stats;
    if (args.shrink) {
      spec = check::shrink_spec(
          spec,
          [&](const check::ShrinkSpec& cand) {
            return run_probe(probe, seed, to_overrides(cand), nullptr).has_value();
          },
          /*max_rounds=*/4, &stats);
    }

    // Minimal reproduction: exact (this tool) and nearest vasim replay.
    std::string set_arg;
    for (const check::ShrinkDim& d : spec) {
      if (!set_arg.empty()) set_arg += ',';
      set_arg += d.name + "=" + std::to_string(d.value);
    }
    std::printf("shrunk to: %s (%d probes, %d rounds)\n", set_arg.c_str(), stats.probes,
                stats.rounds);
    std::printf("repro (exact):  check_probe --mode %s --seed %" PRIu64 " --set %s\n",
                mode.c_str(), seed, set_arg.c_str());
    if (mode == "config") {
      std::printf("replay (vasim): vasim run --bench %s --scheme %s --vdd %.2f --instr %" PRIu64
                  " --warmup %" PRIu64 "%s\n",
                  id.bench.c_str(), id.scheme.c_str(), id.vdd,
                  get_or(to_overrides(spec), "instr", 6000),
                  get_or(to_overrides(spec), "warmup", 3000),
                  id.squash_refetch ? "   # recovery: squash-refetch (fuzz-only variant)" : "");
    }
    return 1;
  }
  std::printf("all %zu probe(s) clean (mode=%s)\n", seeds.size(), mode.c_str());
  return 0;
}
