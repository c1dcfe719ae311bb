#include "src/core/shard.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/core/snapshot.hpp"
#include "src/obs/timeline.hpp"
#include "src/snap/io.hpp"

namespace vasim::core {
namespace {

// ---- RunResult binary codec ------------------------------------------------
// The authoritative payload of a fragment entry: every field sweep_checksum
// reads (plus the diagnostic trail and the optional timeline), encoded with
// the snapshot primitives so double bit patterns and stat-counter maps
// survive the JSON round trip byte-for-byte.

void put_run_result(snap::Writer& w, const RunResult& r) {
  w.put_str(r.benchmark);
  w.put_str(r.scheme);
  w.put_f64(r.vdd);
  w.put_u64(r.committed);
  w.put_u64(r.cycles);
  w.put_f64(r.ipc);
  w.put_f64(r.fault_rate_pct);
  w.put_f64(r.replays);
  w.put_f64(r.predictor_accuracy);
  w.put_f64(r.energy.dynamic_nj);
  w.put_f64(r.energy.leakage_nj);
  w.put_f64(r.energy.edp);
  for (const u64 s : r.cpi.slots) w.put_u64(s);
  snap::put_statset(w, r.stats);
  w.put_u32(static_cast<u32>(r.commit_trail.size()));
  for (const Cycle c : r.commit_trail) w.put_u64(c);
  w.put_u64(r.checker_checks);
  // Fragment schema 2: optional per-job timeline (excluded from the merge
  // checksum, like everywhere else).
  w.put_bool(r.timeline != nullptr);
  if (r.timeline != nullptr) r.timeline->save(w);
  // Fragment schema 3: optional adaptive-clock summary.  The scalars mirror
  // checksummed dvfs.* stats; the trajectory is diagnostic.
  w.put_bool(r.dvfs.has_value());
  if (r.dvfs) {
    const DvfsSummary& d = *r.dvfs;
    w.put_str(d.policy);
    w.put_u64(d.epochs);
    w.put_u64(d.wall_units);
    w.put_u32(d.period_final);
    w.put_u32(d.period_lo);
    w.put_u32(d.period_hi);
    w.put_f64(d.avg_period_permille);
    w.put_f64(d.throughput);
    w.put_u32(static_cast<u32>(d.trajectory.size()));
    for (const adapt::TrajectoryPoint& p : d.trajectory) {
      w.put_u64(p.committed);
      w.put_u32(p.period_permille);
      w.put_u32(p.violations);
    }
  }
}

RunResult get_run_result(snap::Reader& r) {
  RunResult out;
  out.benchmark = r.get_str();
  out.scheme = r.get_str();
  out.vdd = r.get_f64();
  out.committed = r.get_u64();
  out.cycles = r.get_u64();
  out.ipc = r.get_f64();
  out.fault_rate_pct = r.get_f64();
  out.replays = r.get_f64();
  out.predictor_accuracy = r.get_f64();
  out.energy.dynamic_nj = r.get_f64();
  out.energy.leakage_nj = r.get_f64();
  out.energy.edp = r.get_f64();
  for (u64& s : out.cpi.slots) s = r.get_u64();
  out.stats = snap::get_statset(r);
  const u32 trail = r.get_count("fragment commit trail", 8);
  out.commit_trail.reserve(trail);
  for (u32 i = 0; i < trail; ++i) out.commit_trail.push_back(r.get_u64());
  out.checker_checks = r.get_u64();
  if (r.get_bool()) {
    out.timeline = std::make_shared<const obs::Timeline>(obs::Timeline::load(r));
  }
  if (r.get_bool()) {
    DvfsSummary d;
    d.policy = r.get_str();
    d.epochs = r.get_u64();
    d.wall_units = r.get_u64();
    d.period_final = r.get_u32();
    d.period_lo = r.get_u32();
    d.period_hi = r.get_u32();
    d.avg_period_permille = r.get_f64();
    d.throughput = r.get_f64();
    const u32 traj = r.get_count("fragment DVFS trajectory", 16);
    d.trajectory.reserve(traj);
    for (u32 i = 0; i < traj; ++i) {
      adapt::TrajectoryPoint p;
      p.committed = r.get_u64();
      p.period_permille = r.get_u32();
      p.violations = r.get_u32();
      d.trajectory.push_back(p);
    }
    out.dvfs = std::move(d);
  }
  return out;
}

std::string hex_encode(const std::vector<unsigned char>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const unsigned char b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<unsigned char> hex_decode(const std::string& hex) {
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  if (hex.size() % 2 != 0) throw std::runtime_error("fragment blob has odd hex length");
  std::vector<unsigned char> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) throw std::runtime_error("fragment blob has non-hex characters");
    out.push_back(static_cast<unsigned char>((hi << 4) | lo));
  }
  return out;
}

// ---- JSON helpers (writer side mirrors sweep.cpp's conventions) ------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
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
  return out;
}

std::string json_f64(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- targeted fragment scanner ---------------------------------------------
// Reads exactly what write_fragment_json emits.  Not a general JSON parser
// (the toolchain has none): keys are located in document order and values
// scanned in place, which is robust precisely because the layout is ours.

class Scanner {
 public:
  explicit Scanner(std::string text) : text_(std::move(text)) {}

  /// Positions the cursor after `"key": `; throws when the key is absent
  /// from the remaining text.
  void seek(const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t p = text_.find(needle, pos_);
    if (p == std::string::npos) {
      throw std::runtime_error("fragment: missing \"" + key + "\" field");
    }
    pos_ = p + needle.size();
    skip_ws();
  }

  /// True when `key` occurs in the remaining text (lookahead, no cursor move).
  [[nodiscard]] bool has_ahead(const std::string& key) const {
    return text_.find("\"" + key + "\":", pos_) != std::string::npos;
  }

  u64 scan_u64() {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text_.c_str() + pos_, &end, 10);
    if (end == text_.c_str() + pos_) throw std::runtime_error("fragment: expected an integer");
    pos_ = static_cast<std::size_t>(end - text_.c_str());
    return static_cast<u64>(v);
  }

  double scan_f64() {
    char* end = nullptr;
    const double v = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) throw std::runtime_error("fragment: expected a number");
    pos_ = static_cast<std::size_t>(end - text_.c_str());
    return v;
  }

  std::string scan_str() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      throw std::runtime_error("fragment: expected a string");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) throw std::runtime_error("fragment: bad \\u escape");
            c = static_cast<char>(std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: c = esc; break;  // \" and \\ map to themselves
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) throw std::runtime_error("fragment: unterminated string");
    ++pos_;  // closing quote
    return out;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
};

}  // namespace

ShardSpec parse_shard(const std::string& spec) {
  const std::size_t slash = spec.find('/');
  const auto all_digits = [](const std::string& s) {
    if (s.empty()) return false;
    for (const char c : s) {
      if (std::isdigit(static_cast<unsigned char>(c)) == 0) return false;
    }
    return true;
  };
  if (slash == std::string::npos || !all_digits(spec.substr(0, slash)) ||
      !all_digits(spec.substr(slash + 1))) {
    throw std::invalid_argument("shard spec '" + spec + "' is not of the form i/N");
  }
  ShardSpec out;
  out.index = static_cast<std::size_t>(std::strtoull(spec.c_str(), nullptr, 10));
  out.count = static_cast<std::size_t>(std::strtoull(spec.c_str() + slash + 1, nullptr, 10));
  if (out.count == 0 || out.index == 0 || out.index > out.count) {
    throw std::invalid_argument("shard index " + spec + " is outside [1, N]");
  }
  return out;
}

std::vector<std::size_t> shard_indices(const std::vector<SweepJob>& jobs, const ShardSpec& spec,
                                       bool reuse_warmup, const RunnerConfig& base_cfg) {
  // Partition units: whole warmup groups (keyed exactly as SweepRunner
  // groups them) when warm-start sharing is on, single jobs otherwise.
  std::vector<std::vector<std::size_t>> units;
  if (reuse_warmup) {
    std::map<std::string, std::vector<std::size_t>> groups;
    std::vector<const std::vector<std::size_t>*> group_of(jobs.size(), nullptr);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const RunnerConfig& cfg = jobs[i].config ? *jobs[i].config : base_cfg;
      if (cfg.warmup == 0) continue;
      groups[warmup_key_bytes(cfg, jobs[i].profile, jobs[i].scheme, jobs[i].vdd)].push_back(i);
    }
    for (const auto& [key, members] : groups) {
      for (const std::size_t i : members) group_of[i] = &members;
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (group_of[i] == nullptr) {
        units.push_back({i});
      } else if (group_of[i]->front() == i) {
        units.push_back(*group_of[i]);  // whole group, anchored at its first job
      }
    }
  } else {
    units.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) units.push_back({i});
  }

  std::vector<std::size_t> out;
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (u % spec.count == spec.index - 1) {
      out.insert(out.end(), units[u].begin(), units[u].end());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

SweepFragment make_fragment(const std::string& name, const ShardSpec& spec,
                            std::size_t total_jobs, const std::vector<std::size_t>& indices,
                            SweepReport&& report) {
  if (indices.size() != report.jobs.size()) {
    throw std::runtime_error("make_fragment: index list and report size disagree");
  }
  SweepFragment f;
  f.name = name;
  f.shard_index = spec.index;
  f.shard_count = spec.count;
  f.total_jobs = total_jobs;
  f.workers = report.workers;
  f.wall_ms = report.wall_ms;
  f.warmup_groups = report.warmup_groups;
  f.warmup_cycles_simulated = report.warmup_cycles_simulated;
  f.warmup_cycles_saved = report.warmup_cycles_saved;
  f.entries.resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    f.entries[i].index = indices[i];
    f.entries[i].outcome = std::move(report.jobs[i]);
  }
  return f;
}

void write_fragment_json(std::ostream& os, const SweepFragment& f) {
  os << "{\n"
     << "  \"bench\": \"" << json_escape(f.name) << "\",\n"
     << "  \"kind\": \"sweep_fragment\",\n"
     << "  \"schema_version\": 3,\n"
     << "  \"shard_index\": " << f.shard_index << ",\n"
     << "  \"shard_count\": " << f.shard_count << ",\n"
     << "  \"total_jobs\": " << f.total_jobs << ",\n"
     << "  \"workers\": " << f.workers << ",\n"
     << "  \"wall_ms\": " << json_f64(f.wall_ms) << ",\n"
     << "  \"warmup_groups\": " << f.warmup_groups << ",\n"
     << "  \"warmup_cycles_simulated\": " << f.warmup_cycles_simulated << ",\n"
     << "  \"warmup_cycles_saved\": " << f.warmup_cycles_saved << ",\n"
     << "  \"jobs\": [";
  for (std::size_t i = 0; i < f.entries.size(); ++i) {
    const FragmentEntry& e = f.entries[i];
    const RunResult& r = e.outcome.result;
    snap::Writer w;
    put_run_result(w, r);
    os << (i == 0 ? "\n" : ",\n")
       << "    {\"index\": " << e.index
       << ", \"benchmark\": \"" << json_escape(r.benchmark) << "\""
       << ", \"scheme\": \"" << json_escape(r.scheme) << "\""
       << ", \"vdd\": " << json_f64(r.vdd)
       << ", \"ipc\": " << json_f64(r.ipc)
       << ", \"wall_ms\": " << json_f64(e.outcome.wall_ms)
       << ", \"start_ms\": " << json_f64(e.outcome.start_ms)
       << ", \"worker\": " << e.outcome.worker
       << ", \"blob\": \"" << hex_encode(w.data()) << "\"}";
  }
  os << "\n  ]\n}\n";
}

SweepFragment read_fragment_json(std::istream& is, const std::string& path) {
  std::ostringstream buf;
  buf << is.rdbuf();
  Scanner sc(buf.str());

  SweepFragment f;
  sc.seek("bench");
  f.name = sc.scan_str();
  sc.seek("kind");
  if (sc.scan_str() != "sweep_fragment") {
    throw std::runtime_error("fragment: not a sweep fragment (wrong \"kind\")");
  }
  sc.seek("schema_version");
  constexpr u64 kFragmentSchema = 3;
  const u64 schema = sc.scan_u64();
  if (schema != kFragmentSchema) throw FragmentSchemaError(path, schema, kFragmentSchema);
  sc.seek("shard_index");
  f.shard_index = static_cast<std::size_t>(sc.scan_u64());
  sc.seek("shard_count");
  f.shard_count = static_cast<std::size_t>(sc.scan_u64());
  sc.seek("total_jobs");
  f.total_jobs = static_cast<std::size_t>(sc.scan_u64());
  sc.seek("workers");
  f.workers = static_cast<std::size_t>(sc.scan_u64());
  sc.seek("wall_ms");
  f.wall_ms = sc.scan_f64();
  sc.seek("warmup_groups");
  f.warmup_groups = static_cast<std::size_t>(sc.scan_u64());
  sc.seek("warmup_cycles_simulated");
  f.warmup_cycles_simulated = sc.scan_u64();
  sc.seek("warmup_cycles_saved");
  f.warmup_cycles_saved = sc.scan_u64();
  sc.seek("jobs");

  while (sc.has_ahead("index")) {
    FragmentEntry e;
    sc.seek("index");
    e.index = static_cast<std::size_t>(sc.scan_u64());
    sc.seek("wall_ms");
    e.outcome.wall_ms = sc.scan_f64();
    sc.seek("start_ms");
    e.outcome.start_ms = sc.scan_f64();
    sc.seek("worker");
    e.outcome.worker = static_cast<std::size_t>(sc.scan_u64());
    sc.seek("blob");
    const std::vector<unsigned char> bytes = hex_decode(sc.scan_str());
    snap::Reader r(bytes);
    e.outcome.result = get_run_result(r);
    r.expect_done("fragment blob");
    f.entries.push_back(std::move(e));
  }
  return f;
}

SweepReport merge_fragments(std::vector<SweepFragment> fragments) {
  if (fragments.empty()) throw std::runtime_error("merge: no fragments given");
  const SweepFragment& first = fragments.front();
  std::vector<bool> shard_seen(first.shard_count + 1, false);
  std::vector<bool> job_seen(first.total_jobs, false);

  SweepReport report;
  report.jobs.resize(first.total_jobs);
  for (SweepFragment& f : fragments) {
    if (f.name != first.name || f.shard_count != first.shard_count ||
        f.total_jobs != first.total_jobs) {
      throw std::runtime_error("merge: fragments disagree on sweep identity "
                               "(name/shard_count/total_jobs)");
    }
    if (f.shard_index == 0 || f.shard_index > f.shard_count ||
        shard_seen[f.shard_index]) {
      throw std::runtime_error("merge: duplicate or out-of-range shard index " +
                               std::to_string(f.shard_index));
    }
    shard_seen[f.shard_index] = true;
    report.workers = std::max(report.workers, f.workers);
    report.wall_ms += f.wall_ms;
    report.warmup_groups += f.warmup_groups;
    report.warmup_cycles_simulated += f.warmup_cycles_simulated;
    report.warmup_cycles_saved += f.warmup_cycles_saved;
    for (FragmentEntry& e : f.entries) {
      if (e.index >= first.total_jobs || job_seen[e.index]) {
        throw std::runtime_error("merge: job index " + std::to_string(e.index) +
                                 " duplicated or out of range");
      }
      job_seen[e.index] = true;
      report.jobs[e.index] = std::move(e.outcome);
    }
  }
  for (std::size_t i = 0; i < job_seen.size(); ++i) {
    if (!job_seen[i]) {
      throw std::runtime_error("merge: job " + std::to_string(i) +
                               " missing (incomplete fragment set)");
    }
  }
  return report;
}

}  // namespace vasim::core
