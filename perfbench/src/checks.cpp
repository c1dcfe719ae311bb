// Output checks behind `failed`: per-job invariants for any seed, plus the
// pinned core::result_checksum of every job for the default seed.
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "perfbench/src/bench.hpp"

namespace perfbench {

void Verdict::fail_job(const std::string& job, const std::string& why) {
  ++failed;
  failures.push_back(job + ": " + why);
}

Pins load_pins(const std::string& path, const Workload& w, u64 seed) {
  Pins pins;
  if (path.empty()) {
    pins.status = "not applied (no pin file given)";
    return pins;
  }
  std::ifstream in(path);
  if (!in) {
    pins.status = "not applied (" + path + " not found)";
    return pins;
  }
  std::map<std::string, std::string> header;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    std::string value;
    ls >> key >> value;
    if (key == "job") {
      std::string hex;
      ls >> hex;
      if (value.empty() || hex.empty()) {
        throw std::runtime_error(path + ":" + std::to_string(lineno) + ": malformed job line");
      }
      pins.checksum[value] = std::stoull(hex, nullptr, 16);
    } else if (!key.empty()) {
      header[key] = value;
    }
  }
  const auto mismatch = [&](const std::string& key, const std::string& want) {
    const auto it = header.find(key);
    return it == header.end() || it->second != want;
  };
  if (mismatch("workload", w.name) || mismatch("seed", std::to_string(seed)) ||
      mismatch("instructions", std::to_string(w.config.instructions)) ||
      mismatch("warmup", std::to_string(w.config.warmup))) {
    pins.checksum.clear();
    pins.status = "not applied (" + path + " was written for another seed or run length)";
    return pins;
  }
  pins.applicable = true;
  pins.status = "applied (" + path + ")";
  return pins;
}

void write_pins(const std::string& path, const Workload& w, u64 seed,
                const std::vector<vasim::core::RunResult>& results) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# core::result_checksum of every job; regenerate with\n"
      << "#   python3 perfbench/run.py --workload " << w.name << " --seed " << seed
      << " --trace 0 --seconds 1 --write-pins " << path << "\n"
      << "workload " << w.name << "\n"
      << "seed " << seed << "\n"
      << "instructions " << w.config.instructions << "\n"
      << "warmup " << w.config.warmup << "\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, vasim::core::result_checksum(results[i]));
    out << "job " << w.jobs[i].name << " " << hex << "\n";
  }
  if (!out) throw std::runtime_error("error writing " + path);
}

void check_results(const Workload& w, const std::vector<vasim::core::RunResult>& results,
                   const Pins& pins, Verdict& v) {
  v.attempted += w.jobs.size();
  if (results.size() != w.jobs.size()) {
    throw std::logic_error("check_results: result count does not match the grid");
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const vasim::core::RunResult& r = results[i];
    const NamedJob& j = w.jobs[i];
    const vasim::core::RunnerConfig& cfg = job_config(w, j.job);
    std::string why;
    if (r.committed != cfg.instructions) {
      why = "committed " + std::to_string(r.committed) + " in the measured window, expected " +
            std::to_string(cfg.instructions) + " after " + std::to_string(cfg.warmup) +
            " warmup";
    } else if (r.cpi.total() != r.cycles * static_cast<u64>(cfg.core.commit_width)) {
      why = "CPI stack holds " + std::to_string(r.cpi.total()) +
            " slots, expected cycles * width = " +
            std::to_string(r.cycles * static_cast<u64>(cfg.core.commit_width));
    } else if (pins.applicable) {
      const auto it = pins.checksum.find(j.name);
      const u64 got = vasim::core::result_checksum(r);
      if (it == pins.checksum.end()) {
        why = "no pinned checksum";
      } else if (it->second != got) {
        char buf[80];
        std::snprintf(buf, sizeof buf, "checksum %016" PRIx64 " != pinned %016" PRIx64, got,
                      it->second);
        why = buf;
      }
    }
    if (!why.empty()) v.fail_job(j.name, why);
  }
}

}  // namespace perfbench
