#include "src/obs/timeline.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "src/obs/trace.hpp"

namespace vasim::obs {
namespace {

constexpr u32 kTimelineSchema = 1;

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

Timeline::Timeline(const Config& cfg, const Registry* registry)
    : reg_(registry),
      interval_(cfg.interval == 0 ? 1 : cfg.interval),
      phase_delta_(cfg.phase_delta) {
  if (reg_ != nullptr) {
    names_.reserve(reg_->num_counters());
    prev_.reserve(reg_->num_counters());
    for (std::size_t i = 0; i < reg_->num_counters(); ++i) {
      names_.push_back(reg_->counter_name(i));
      prev_.push_back(reg_->counter_at(i));
    }
  }
  col_cpi_.fill(-1);
  for (std::size_t c = 0; c < names_.size(); ++c) {
    const std::string& n = names_[c];
    if (n == "fault.actual") col_fault_actual_ = static_cast<int>(c);
    if (n == "fault.handled") col_fault_handled_ = static_cast<int>(c);
    if (n == "dvfs.wall_units") col_wall_units_ = static_cast<int>(c);
    if (n.rfind("fault.stage.", 0) == 0) stage_cols_.push_back(c);
    for (int i = 0; i < kNumCpiCauses; ++i) {
      if (n == "cpi." + std::string(to_string(static_cast<CpiCause>(i)))) {
        col_cpi_[static_cast<std::size_t>(i)] = static_cast<int>(c);
      }
    }
  }
  reserve(cfg.capacity_hint == 0 ? 1 : cfg.capacity_hint);
}

void Timeline::reserve(std::size_t windows) {
  cycle_end_.reserve(windows);
  committed_end_.reserve(windows);
  phase_.reserve(windows);
  deltas_.reserve(windows * names_.size());
}

void Timeline::push_window(Cycle now, u64 committed) {
  const Cycle dc = now - last_cycle_;
  const u64 di = committed - last_committed_;
  if (dc == 0 && di == 0) return;  // nothing elapsed: no window
  cycle_end_.push_back(now);
  committed_end_.push_back(committed);
  for (std::size_t c = 0; c < names_.size(); ++c) {
    const u64 cur = reg_->counter_at(c);
    deltas_.push_back(cur - prev_[c]);
    prev_[c] = cur;
  }
  const double ipc_w = dc == 0 ? 0.0 : static_cast<double>(di) / static_cast<double>(dc);
  bool changed = false;
  const std::size_t w = cycle_end_.size() - 1;
  if (w > 0) {
    const double prev_ipc = ipc(w - 1);
    changed = std::fabs(ipc_w - prev_ipc) > phase_delta_ * std::max(prev_ipc, 1e-9);
  }
  phase_.push_back(changed ? 1 : 0);
  last_cycle_ = now;
  last_committed_ = committed;
}

void Timeline::sample(Cycle now, u64 committed) { push_window(now, committed); }

void Timeline::mark_measurement(Cycle now, u64 committed) {
  push_window(now, committed);
  measurement_start_ = cycle_end_.size();
}

void Timeline::rebaseline(Cycle now, u64 committed) {
  if (!cycle_end_.empty()) {
    throw std::logic_error("Timeline::rebaseline on a non-empty timeline");
  }
  for (std::size_t c = 0; c < names_.size(); ++c) prev_[c] = reg_->counter_at(c);
  last_cycle_ = now;
  last_committed_ = committed;
  base_cycle_ = now;
  base_committed_ = committed;
}

void Timeline::finalize(Cycle now, u64 committed) {
  if (finalized_) return;
  push_window(now, committed);
  finalized_ = true;
}

u64 Timeline::delta_of(std::size_t w, std::string_view name) const {
  for (std::size_t c = 0; c < names_.size(); ++c) {
    if (names_[c] == name) return delta(w, c);
  }
  return 0;
}

double Timeline::ipc(std::size_t w) const {
  const Cycle dc = cycle_delta(w);
  return dc == 0 ? 0.0
                 : static_cast<double>(committed_delta(w)) / static_cast<double>(dc);
}

double Timeline::violation_rate(std::size_t w) const {
  const u64 di = committed_delta(w);
  if (col_fault_actual_ < 0 || di == 0) return 0.0;
  return static_cast<double>(delta(w, static_cast<std::size_t>(col_fault_actual_))) /
         static_cast<double>(di);
}

double Timeline::predictor_accuracy(std::size_t w) const {
  if (col_fault_actual_ < 0 || col_fault_handled_ < 0) return 0.0;
  const u64 actual = delta(w, static_cast<std::size_t>(col_fault_actual_));
  if (actual == 0) return 0.0;
  return static_cast<double>(delta(w, static_cast<std::size_t>(col_fault_handled_))) /
         static_cast<double>(actual);
}

double Timeline::period_permille(std::size_t w) const {
  const Cycle dc = cycle_delta(w);
  if (col_wall_units_ < 0 || dc == 0) return 0.0;
  return static_cast<double>(delta(w, static_cast<std::size_t>(col_wall_units_))) /
         static_cast<double>(dc);
}

double Timeline::recovery_overhead(std::size_t w) const {
  const CpiStack st = cpi_window(w);
  const u64 total = st.total();
  if (total == 0) return 0.0;
  const u64 lost = st[CpiCause::kEpStall] + st[CpiCause::kReplay] + st[CpiCause::kSquashRefetch];
  return static_cast<double>(lost) / static_cast<double>(total);
}

CpiStack Timeline::cpi_window(std::size_t w) const {
  CpiStack st;
  for (int i = 0; i < kNumCpiCauses; ++i) {
    const int c = col_cpi_[static_cast<std::size_t>(i)];
    if (c >= 0) st.slots[static_cast<std::size_t>(i)] = delta(w, static_cast<std::size_t>(c));
  }
  return st;
}

void Timeline::write_json(std::ostream& os, bool include_counters) const {
  const std::size_t n = windows();
  os << "{\"kind\": \"vasim_timeline\", \"schema_version\": " << kTimelineSchema
     << ", \"interval\": " << interval_ << ", \"windows\": " << n
     << ", \"measurement_start\": " << measurement_start_;
  const auto u64_array = [&](const char* key, auto&& get) {
    os << ", \"" << key << "\": [";
    for (std::size_t w = 0; w < n; ++w) os << (w ? ", " : "") << get(w);
    os << ']';
  };
  const auto series = [&](const char* key, auto&& get) {
    os << '"' << key << "\": [";
    for (std::size_t w = 0; w < n; ++w) os << (w ? ", " : "") << json_num(get(w));
    os << ']';
  };
  u64_array("cycle_end", [&](std::size_t w) { return cycle_end_[w]; });
  u64_array("committed_end", [&](std::size_t w) { return committed_end_[w]; });
  u64_array("phase_change", [&](std::size_t w) { return static_cast<int>(phase_[w]); });
  os << ", \"series\": {";
  series("ipc", [&](std::size_t w) { return ipc(w); });
  os << ", ";
  series("violation_rate", [&](std::size_t w) { return violation_rate(w); });
  os << ", ";
  series("predictor_accuracy", [&](std::size_t w) { return predictor_accuracy(w); });
  os << ", ";
  series("recovery_overhead", [&](std::size_t w) { return recovery_overhead(w); });
  // Adaptive-clock runs only: the window-averaged period in permille of
  // nominal.  Absent on static runs so their JSON stays byte-identical.
  if (has_period_series()) {
    os << ", ";
    series("period_permille", [&](std::size_t w) { return period_permille(w); });
  }
  os << ", \"cpi\": {";
  for (int i = 0; i < kNumCpiCauses; ++i) {
    if (i) os << ", ";
    const auto cause = static_cast<CpiCause>(i);
    // Width-free attribution: cause CPI = (slot share) * (window CPI).
    series(std::string(to_string(cause)).c_str(), [&](std::size_t w) {
      const u64 di = committed_delta(w);
      const CpiStack st = cpi_window(w);
      const u64 total = st.total();
      if (di == 0 || total == 0) return 0.0;
      const double window_cpi =
          static_cast<double>(cycle_delta(w)) / static_cast<double>(di);
      return static_cast<double>(st[cause]) / static_cast<double>(total) * window_cpi;
    });
  }
  os << "}}";
  if (!stage_cols_.empty()) {
    os << ", \"stage_violation_rate\": {";
    bool first = true;
    for (const std::size_t c : stage_cols_) {
      if (!first) os << ", ";
      first = false;
      series(names_[c].substr(std::string("fault.stage.").size()).c_str(), [&](std::size_t w) {
        const u64 di = committed_delta(w);
        return di == 0 ? 0.0
                       : static_cast<double>(delta(w, c)) / static_cast<double>(di);
      });
    }
    os << '}';
  }
  if (include_counters) {
    os << ", \"counters\": {";
    bool first = true;
    for (std::size_t c = 0; c < names_.size(); ++c) {
      if (!first) os << ", ";
      first = false;
      os << json_quote(names_[c]) << ": [";
      for (std::size_t w = 0; w < n; ++w) os << (w ? ", " : "") << delta(w, c);
      os << ']';
    }
    os << '}';
  }
  os << '}';
}

void Timeline::write_csv(std::ostream& os) const {
  os << "window,cycle_end,committed_end,phase_change,ipc,violation_rate,"
        "predictor_accuracy,recovery_overhead";
  for (const std::string& nm : names_) os << ',' << nm;
  os << '\n';
  for (std::size_t w = 0; w < windows(); ++w) {
    os << w << ',' << cycle_end_[w] << ',' << committed_end_[w] << ','
       << static_cast<int>(phase_[w]) << ',' << json_num(ipc(w)) << ','
       << json_num(violation_rate(w)) << ',' << json_num(predictor_accuracy(w)) << ','
       << json_num(recovery_overhead(w));
    for (std::size_t c = 0; c < names_.size(); ++c) os << ',' << delta(w, c);
    os << '\n';
  }
}

void Timeline::append_counter_tracks(ChromeTraceWriter& trace, u64 pid, u64 tid,
                                     const std::string& prefix, double ts0_us,
                                     double us_per_cycle) const {
  for (std::size_t w = 0; w < windows(); ++w) {
    const double ts = ts0_us + static_cast<double>(cycle_end_[w]) * us_per_cycle;
    trace.counter_event(prefix + "ipc", "timeline", pid, tid, ts,
                        {{"ipc", json_num(ipc(w))}});
    trace.counter_event(prefix + "violation_rate", "timeline", pid, tid, ts,
                        {{"rate", json_num(violation_rate(w))}});
    trace.counter_event(prefix + "predictor_accuracy", "timeline", pid, tid, ts,
                        {{"accuracy", json_num(predictor_accuracy(w))}});
    trace.counter_event(prefix + "recovery_overhead", "timeline", pid, tid, ts,
                        {{"fraction", json_num(recovery_overhead(w))}});
    if (has_period_series()) {
      trace.counter_event(prefix + "period_permille", "timeline", pid, tid, ts,
                          {{"permille", json_num(period_permille(w))}});
    }
    const CpiStack st = cpi_window(w);
    const u64 di = committed_delta(w);
    const u64 total = st.total();
    if (di != 0 && total != 0) {
      const double window_cpi =
          static_cast<double>(cycle_delta(w)) / static_cast<double>(di);
      const auto cpi_of = [&](CpiCause c) {
        return json_num(static_cast<double>(st[c]) / static_cast<double>(total) * window_cpi);
      };
      trace.counter_event(prefix + "cpi_stack", "timeline", pid, tid, ts,
                          {{"base", cpi_of(CpiCause::kBase)},
                           {"frontend", cpi_of(CpiCause::kFrontend)},
                           {"data_dep", cpi_of(CpiCause::kDataDep)},
                           {"memory", cpi_of(CpiCause::kMemory)},
                           {"slot_freeze", cpi_of(CpiCause::kSlotFreeze)},
                           {"delayed_bcast", cpi_of(CpiCause::kDelayedBroadcast)},
                           {"ep_stall", cpi_of(CpiCause::kEpStall)},
                           {"replay", cpi_of(CpiCause::kReplay)},
                           {"squash_refetch", cpi_of(CpiCause::kSquashRefetch)}});
    }
  }
}

}  // namespace vasim::obs
