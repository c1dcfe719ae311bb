// Shared seed management and case draws for the randomized test suites.
//
// Every fuzz-style suite (test_fuzz, test_program_fuzz, test_semantics,
// tools/check_probe) draws its seed list from here so one environment
// variable reproduces any failure:
//
//   VASIM_FUZZ_SEEDS=17,42   run exactly these seeds (reproduction)
//   VASIM_FUZZ_ITERS=200     widen the default range (long-fuzz CI job)
//
// Without either knob a suite runs its default contiguous range plus the
// checked-in corpus (tests/corpus/fuzz_seeds.txt): seeds that once exposed
// a bug stay in every future run.
#ifndef VASIM_TESTS_FUZZ_UTIL_HPP
#define VASIM_TESTS_FUZZ_UTIL_HPP

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/env.hpp"
#include "src/common/rng.hpp"
#include "src/common/types.hpp"
#include "src/core/runner.hpp"
#include "src/cpu/config.hpp"
#include "src/workload/profiles.hpp"

namespace vasim::fuzzutil {

/// Absolute path of the seed corpus (resolved from this header's location,
/// same trick as the golden fixture).
inline std::string corpus_path() {
  std::string p(__FILE__);
  const std::size_t slash = p.find_last_of('/');
  return p.substr(0, slash) + "/corpus/fuzz_seeds.txt";
}

/// Seed list for the suite named `tag` ("config", "program", "probe").
/// Corpus lines are `seed`, `tag:seed`, or `# comment`; untagged seeds feed
/// every suite.
inline std::vector<u64> seeds(const std::string& tag, u64 base, u64 default_count) {
  std::vector<u64> out;
  const std::string explicit_seeds = env_str("VASIM_FUZZ_SEEDS", "");
  if (!explicit_seeds.empty()) {
    std::stringstream ss(explicit_seeds);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) out.push_back(std::stoull(item));
    }
    return out;
  }

  const u64 n = env_u64("VASIM_FUZZ_ITERS", default_count);
  out.reserve(static_cast<std::size_t>(n));
  for (u64 i = 0; i < n; ++i) out.push_back(base + i);

  std::ifstream f(corpus_path());
  std::string line;
  while (std::getline(f, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const std::size_t e = line.find_last_not_of(" \t\r");
    line = line.substr(b, e - b + 1);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      if (line.substr(0, colon) != tag) continue;
      line = line.substr(colon + 1);
    }
    try {
      const u64 s = std::stoull(line);
      if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
    } catch (...) {
      // Malformed corpus lines are ignored (the corpus is hand-edited).
    }
  }
  return out;
}

/// One configuration-fuzz case: machine shape, workload, scheme, supply.
struct ConfigCase {
  cpu::CoreConfig cfg;
  workload::BenchmarkProfile prof;
  cpu::SchemeConfig scheme;
  double vdd = 0.0;
};

/// The configuration-fuzz case of `seed` (salt 0xf022): test_fuzz and
/// check_probe's config mode draw the same case from the same seed.
inline ConfigCase draw_config_case(u64 seed) {
  Pcg32 rng(seed, 0xf022ULL);
  ConfigCase c;
  c.cfg.issue_width = 1 + static_cast<int>(rng.next_below(8));
  c.cfg.fetch_width = c.cfg.issue_width;
  c.cfg.dispatch_width = c.cfg.issue_width;
  c.cfg.commit_width = c.cfg.issue_width;
  c.cfg.rob_entries = 16 << rng.next_below(4);  // 16..128
  c.cfg.iq_entries = std::min(c.cfg.rob_entries, 8 << static_cast<int>(rng.next_below(3)));
  c.cfg.lq_entries = 8 + static_cast<int>(rng.next_below(24));
  c.cfg.sq_entries = 8 + static_cast<int>(rng.next_below(24));
  c.cfg.simple_alus = 1 + static_cast<int>(rng.next_below(4));
  c.cfg.load_ports = 1 + static_cast<int>(rng.next_below(2));
  c.cfg.model_wrong_path = rng.next_bool(0.3);
  c.cfg.l2_next_line_prefetch = rng.next_bool(0.3);

  const auto profiles = workload::spec2006_profiles();
  c.prof = profiles[rng.next_below(static_cast<u32>(profiles.size()))];
  const auto& schemes = core::comparative_schemes();
  c.scheme = schemes[rng.next_below(static_cast<u32>(schemes.size()))];
  if (rng.next_bool(0.3)) c.scheme.recovery = cpu::RecoveryModel::kSquashRefetch;
  if (rng.next_bool(0.25)) c.scheme.inorder_fault_scale = 0.3;
  c.vdd = rng.next_bool(0.5) ? 0.97 : 1.04;
  return c;
}

/// Size caps of a random program; check_probe shrinks them.
struct ProgramCaps {
  u64 loops = 4;  ///< counted loops: 1..loops
  u64 trip = 30;  ///< trip count of each: 3..trip+2
  u64 body = 8;   ///< instructions in each body: 1..body
};

/// A random, always-terminating mini-ISA program: a chain of counted loops
/// whose bodies mix ALU, memory and mul work.
inline std::string random_program(Pcg32& rng, const ProgramCaps& caps) {
  std::ostringstream os;
  os << "lui r10, 0x10\n";  // memory base
  const u64 loops = 1 + rng.next_below(static_cast<u32>(caps.loops));
  for (u64 l = 0; l < loops; ++l) {
    const u64 trip = 3 + rng.next_below(static_cast<u32>(caps.trip));
    os << "addi r1, r0, 0\n";
    os << "addi r2, r0, " << trip << "\n";
    os << "L" << l << ":\n";
    const u64 body = 1 + rng.next_below(static_cast<u32>(caps.body));
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

/// One program-fuzz case: the program and the scheme that runs it at 0.97 V.
struct ProgramCase {
  std::string source;
  cpu::SchemeConfig scheme;
  bool model_wrong_path = false;
};

/// The program-fuzz case of `seed` (salt 0x9f09): test_program_fuzz and
/// check_probe's program mode draw the same case from the same seed.
inline ProgramCase draw_program_case(u64 seed, const ProgramCaps& caps = {}) {
  Pcg32 rng(seed, 0x9f09ULL);
  ProgramCase c;
  c.source = random_program(rng, caps);
  const auto& schemes = core::comparative_schemes();
  c.scheme = schemes[rng.next_below(static_cast<u32>(schemes.size()))];
  if (rng.next_bool(0.4)) c.scheme.recovery = cpu::RecoveryModel::kSquashRefetch;
  c.model_wrong_path = rng.next_bool(0.4);
  return c;
}

}  // namespace vasim::fuzzutil

#endif  // VASIM_TESTS_FUZZ_UTIL_HPP
