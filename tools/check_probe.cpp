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
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/check/shrink.hpp"
#include "src/core/runner.hpp"
#include "src/isa/assembler.hpp"
#include "src/isa/executor.hpp"
#include "src/workload/profiles.hpp"
#include "tests/fuzz_util.hpp"

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

/// Config-mode probe: the same derivation as tests/test_fuzz.cpp (seed salt
/// 0xf022), so corpus seeds are shared between the suite and this tool.
/// Returns the failure description, or nullopt when the run is clean.
std::optional<std::string> config_failure(u64 seed, const Overrides& ov, RunIdentity* id) {
  Pcg32 rng(seed, 0xf022ULL);

  cpu::CoreConfig cfg;
  cfg.issue_width = 1 + static_cast<int>(rng.next_below(8));
  cfg.rob_entries = 16 << rng.next_below(4);
  cfg.iq_entries = std::min(cfg.rob_entries, 8 << static_cast<int>(rng.next_below(3)));
  cfg.lq_entries = 8 + static_cast<int>(rng.next_below(24));
  cfg.sq_entries = 8 + static_cast<int>(rng.next_below(24));
  cfg.simple_alus = 1 + static_cast<int>(rng.next_below(4));
  cfg.load_ports = 1 + static_cast<int>(rng.next_below(2));
  cfg.model_wrong_path = rng.next_bool(0.3);
  cfg.l2_next_line_prefetch = rng.next_bool(0.3);

  const auto profiles = workload::spec2006_profiles();
  const auto prof = profiles[rng.next_below(static_cast<u32>(profiles.size()))];
  const auto schemes = core::comparative_schemes();
  cpu::SchemeConfig scheme = schemes[rng.next_below(static_cast<u32>(schemes.size()))];
  if (rng.next_bool(0.3)) scheme.recovery = cpu::RecoveryModel::kSquashRefetch;
  if (rng.next_bool(0.25)) scheme.inorder_fault_scale = 0.3;
  const double vdd = rng.next_bool(0.5) ? 0.97 : 1.04;

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

/// Program-mode probe: parameterized variant of the generator in
/// tests/test_program_fuzz.cpp (seed salt 0x9f09).  The caps are the
/// shrinkable dimensions -- smaller caps mean smaller programs.
std::string gen_program(Pcg32& rng, u64 loop_cap, u64 trip_cap, u64 body_cap) {
  std::ostringstream os;
  os << "lui r10, 0x10\n";
  const u64 loops = 1 + rng.next_below(static_cast<u32>(loop_cap));
  for (u64 l = 0; l < loops; ++l) {
    const u64 trip = 3 + rng.next_below(static_cast<u32>(trip_cap));
    os << "addi r1, r0, 0\n";
    os << "addi r2, r0, " << trip << "\n";
    os << "L" << l << ":\n";
    const u64 body = 1 + rng.next_below(static_cast<u32>(body_cap));
    for (u64 b = 0; b < body; ++b) {
      const int dst = 3 + static_cast<int>(rng.next_below(6));
      const int src = 1 + static_cast<int>(rng.next_below(8));
      switch (rng.next_below(6)) {
        case 0: os << "add r" << dst << ", r" << src << ", r1\n"; break;
        case 1: os << "addi r" << dst << ", r" << src << ", " << rng.next_below(100) << "\n"; break;
        case 2: os << "ld r" << dst << ", " << 8 * rng.next_below(16) << "(r10)\n"; break;
        case 3: os << "st r" << src << ", " << 8 * rng.next_below(16) << "(r10)\n"; break;
        case 4: os << "mul r" << dst << ", r" << src << ", r2\n"; break;
        default: os << "xor r" << dst << ", r" << src << ", r2\n"; break;
      }
    }
    os << "addi r1, r1, 1\n";
    os << "blt r1, r2, L" << l << "\n";
  }
  os << "halt\n";
  return os.str();
}

std::optional<std::string> program_failure(u64 seed, const Overrides& ov, RunIdentity* id) {
  Pcg32 rng(seed, 0x9f09ULL);
  const u64 loop_cap = get_or(ov, "loops", 4);
  const u64 trip_cap = get_or(ov, "trip", 30);
  const u64 body_cap = get_or(ov, "body", 8);
  const isa::Program prog = isa::assemble(gen_program(rng, loop_cap, trip_cap, body_cap));
  isa::FunctionalCore ref(&prog);
  isa::DynInst d;
  u64 dynamic_count = 0;
  while (ref.next(d)) ++dynamic_count;

  const auto schemes = core::comparative_schemes();
  cpu::SchemeConfig scheme = schemes[rng.next_below(static_cast<u32>(schemes.size()))];
  if (rng.next_bool(0.4)) scheme.recovery = cpu::RecoveryModel::kSquashRefetch;
  if (id != nullptr) {
    id->bench = "<program>";
    id->scheme = scheme.name;
    id->vdd = 0.97;
    id->squash_refetch = scheme.recovery == cpu::RecoveryModel::kSquashRefetch;
    id->dims = {{"loops", loop_cap}, {"trip", trip_cap}, {"body", body_cap}};
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
  rc.core.model_wrong_path = rng.next_bool(0.4);
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

int usage() {
  std::fprintf(stderr,
               "usage: check_probe [--mode config|program] [--seed K[,K...]] [--iters N]\n"
               "                   [--set k=v[,k=v...]] [--no-shrink]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "config";
  std::vector<u64> seeds;
  Overrides sets;
  u64 iters = 10;
  bool shrink = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--mode") {
      const char* v = next();
      if (v == nullptr) return usage();
      mode = v;
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return usage();
      std::stringstream ss(v);
      std::string item;
      while (std::getline(ss, item, ',')) seeds.push_back(std::stoull(item));
    } else if (arg == "--iters") {
      const char* v = next();
      if (v == nullptr) return usage();
      iters = std::stoull(v);
    } else if (arg == "--set") {
      const char* v = next();
      if (v == nullptr) return usage();
      std::stringstream ss(v);
      std::string item;
      while (std::getline(ss, item, ',')) {
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) return usage();
        sets[item.substr(0, eq)] = std::stoull(item.substr(eq + 1));
      }
    } else if (arg == "--no-shrink") {
      shrink = false;
    } else {
      return usage();
    }
  }
  if (mode != "config" && mode != "program") return usage();
  const auto probe = mode == "program" ? program_failure : config_failure;
  if (seeds.empty()) {
    seeds = fuzzutil::seeds("probe", mode == "program" ? 101 : 1, iters);
  }

  for (const u64 seed : seeds) {
    RunIdentity id;
    const auto failure = run_probe(probe, seed, sets, &id);
    if (!failure) {
      std::printf("ok   mode=%s seed=%" PRIu64 " (%s/%s vdd=%.2f)\n", mode.c_str(), seed,
                  id.bench.c_str(), id.scheme.c_str(), id.vdd);
      continue;
    }
    std::printf("FAIL mode=%s seed=%" PRIu64 " (%s/%s vdd=%.2f)\n%s\n", mode.c_str(), seed,
                id.bench.c_str(), id.scheme.c_str(), id.vdd, failure->c_str());

    check::ShrinkSpec spec = initial_spec(mode, id.dims);
    check::ShrinkStats stats;
    if (shrink) {
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
