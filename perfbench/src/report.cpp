// Summary statistics, the self-describing record and the one-line result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "perfbench/src/bench.hpp"
#include "src/cpu/check_hooks.hpp"
#include "src/obs/profiler.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  // 1-based position (n + 1) * q, clamped to the data like Python's
  // "exclusive" method.
  const double pos = std::clamp(q * (n + 1.0), 1.0, n);
  const auto lo = static_cast<std::size_t>(std::floor(pos)) - 1;
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - std::floor(pos);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

double mad(const std::vector<double>& v) {
  const double m = median(v);
  std::vector<double> dev;
  dev.reserve(v.size());
  for (const double x : v) dev.push_back(std::fabs(x - m));
  return median(dev);
}

std::string metric_json(const Metric& m) {
  const auto [lo, hi] = std::minmax_element(m.samples.begin(), m.samples.end());
  std::ostringstream os;
  os << "{\"name\":" << json_string(m.name) << ",\"layer\":" << json_string(m.layer)
     << ",\"unit\":" << json_string(m.unit) << ",\"reps\":" << m.samples.size()
     << ",\"median\":" << json_number(median(m.samples))
     << ",\"min\":" << json_number(m.samples.empty() ? 0.0 : *lo)
     << ",\"max\":" << json_number(m.samples.empty() ? 0.0 : *hi)
     << ",\"mad\":" << json_number(mad(m.samples))
     << ",\"q1\":" << json_number(quantile(m.samples, 0.25))
     << ",\"q3\":" << json_number(quantile(m.samples, 0.75));
  if (!m.note.empty()) os << ",\"note\":" << json_string(m.note);
  os << ",\"samples\":[";
  for (std::size_t i = 0; i < m.samples.size(); ++i) {
    os << (i ? "," : "") << json_number(m.samples[i]);
  }
  os << "]}";
  return os.str();
}

std::string record_json(const Options& o, const Workload& w, const RunOutcome& out) {
  std::ostringstream os;
  os << "{\"schema\":\"vasim-perfbench/1\",\"workload\":" << json_string(w.name)
     << ",\"mode\":" << json_string(out.mode) << ",\"meta\":{"
     << "\"source\":" << json_string(o.source_id)
     << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
     << ",\"flags\":" << json_string(PERFBENCH_CXX_FLAGS)
     << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
     << ",\"VASIM_CHECK_HOOKS\":" << (vasim::cpu::kCheckHooksEnabled ? "true" : "false")
     << ",\"VASIM_PROF_HOOKS\":" << (vasim::obs::kProfHooksEnabled ? "true" : "false")
     << ",\"nproc\":" << std::thread::hardware_concurrency() << ",\"workers\":" << o.workers
     << ",\"seed\":" << o.seed << ",\"default_seed\":" << kDefaultSeed
     << ",\"held_out_seed\":" << kHeldOutSeed << ",\"seconds\":" << json_number(o.seconds)
     << ",\"jobs\":" << w.jobs.size() << ",\"instructions\":" << w.config.instructions
     << ",\"warmup\":" << w.config.warmup
     << ",\"load\":\"closed batch: every job submitted at once to a fixed pool\"}";
  os << ",\"metrics\":[";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    os << (i ? "," : "") << metric_json(out.metrics[i]);
  }
  os << "],\"checks\":{\"attempted\":" << out.verdict.attempted
     << ",\"failed\":" << out.verdict.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < out.verdict.failures.size(); ++i) {
    os << (i ? "," : "") << json_string(out.verdict.failures[i]);
  }
  os << "]}";
  for (const auto& [key, raw] : out.extra) os << "," << json_string(key) << ":" << raw;
  os << "}";
  return os.str();
}

}  // namespace

void emit(const Options& o, const Workload& w, const RunOutcome& out) {
  std::printf("perfbench %s (%s): seed %llu, %zu jobs, %zu workers of %u cpus, %llu+%llu instr\n",
              w.name.c_str(), out.mode.c_str(), static_cast<unsigned long long>(o.seed),
              w.jobs.size(), o.workers, std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(w.config.warmup),
              static_cast<unsigned long long>(w.config.instructions));
  for (const Metric& m : out.metrics) {
    const double med = median(m.samples);
    std::printf("  %-28s %14.6g %-10s", m.name.c_str(), med, m.unit.c_str());
    if (m.samples.size() > 1) {
      const auto [lo, hi] = std::minmax_element(m.samples.begin(), m.samples.end());
      std::printf(" median of %zu, min %.6g max %.6g", m.samples.size(), *lo, *hi);
    }
    if (!m.note.empty()) std::printf(" [%s]", m.note.c_str());
    std::printf("\n");
  }
  std::printf("  checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(out.verdict.attempted),
              static_cast<unsigned long long>(out.verdict.failed));
  for (const std::string& f : out.verdict.failures) std::printf("    FAIL %s\n", f.c_str());

  if (!o.record_path.empty()) {
    std::ofstream rec(o.record_path);
    rec << record_json(o, w, out) << "\n";
    if (!rec) throw std::runtime_error("cannot write record " + o.record_path);
    std::printf("  record: %s\n", o.record_path.c_str());
  }

  std::ostringstream os;
  os << "{\"correct\": " << (out.verdict.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << out.verdict.attempted << ", \"failed\": " << out.verdict.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out.metrics) {
    if (!m.in_result) continue;
    os << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": "
       << json_number(median(m.samples)) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  os << "}}";
  std::fflush(stdout);
  std::cout << os.str() << std::endl;
}

}  // namespace perfbench
