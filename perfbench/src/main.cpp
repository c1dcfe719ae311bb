// vasim_perfbench: runs one workload untraced (end-to-end metrics) or
// traced (per-layer metrics) and prints the one-line JSON result last.
//
//   vasim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--instr N] [--warmup N] [--pins FILE]
//                   [--write-pins FILE] [--record FILE] [--spans FILE]
//                   [--source-id TEXT]
//
// Exit status: 0 when the run completed (its correctness is in the result),
// 2 on bad arguments or an internal error, without a result line.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "perfbench/src/bench.hpp"

namespace {

using perfbench::Options;

int usage(const std::string& why) {
  std::cerr << "vasim_perfbench: " << why << "\n"
            << "usage: vasim_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
            << "         [--instr N] [--warmup N] [--pins FILE]\n"
            << "         [--write-pins FILE] [--record FILE] [--spans FILE] [--source-id TEXT]\n"
            << "workloads:";
  for (const std::string& n : perfbench::workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  return 2;
}

perfbench::u64 parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  const unsigned long long x = std::stoull(v, &used, 10);
  if (used != v.size()) throw std::invalid_argument(flag + " expects an integer, got '" + v + "'");
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  // A deterministic allocator: one arena, no returning memory to the kernel.
  // glibc otherwise gives each worker thread that races into malloc its own
  // arena (quantizing peak RSS by a few MiB per arena) and trims or unmaps
  // freed blocks at adaptive thresholds, so set-up time flips between runs
  // that re-fault their pages and runs that do not.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Options o;
  o.workers = std::min<std::size_t>(perfbench::kMaxWorkers,
                                     std::max(1U, std::thread::hardware_concurrency()));
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string v = argv[++i];
      if (flag == "--workload") {
        o.workload = v;
      } else if (flag == "--seed") {
        o.seed = parse_u64(flag, v);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(v);
        if (!(o.seconds > 0.0)) return usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return usage("--trace expects 0 or 1");
        o.trace = v == "1";
        have_trace = true;
      } else if (flag == "--instr") {
        o.instructions = parse_u64(flag, v);
        if (*o.instructions == 0) return usage("--instr must be positive");
      } else if (flag == "--warmup") {
        o.warmup = parse_u64(flag, v);
      } else if (flag == "--pins") {
        o.pins_path = v;
      } else if (flag == "--write-pins") {
        o.write_pins_path = v;
      } else if (flag == "--record") {
        o.record_path = v;
      } else if (flag == "--spans") {
        o.spans_path = v;
      } else if (flag == "--source-id") {
        o.source_id = v;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (o.workload.empty() || !have_trace) return usage("--workload and --trace are required");

  try {
    const perfbench::Workload w =
        perfbench::make_workload(o.workload, o.seed, o.instructions, o.warmup);
    const perfbench::RunOutcome out =
        o.trace ? perfbench::run_traced(o, w) : perfbench::run_untraced(o, w);
    perfbench::emit(o, w, out);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "vasim_perfbench: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
