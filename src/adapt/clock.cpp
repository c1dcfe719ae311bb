#include "src/adapt/clock.hpp"

#include <algorithm>

namespace vasim::adapt {

ClockDomain::ClockDomain(const DvfsConfig& cfg, double vdd)
    : cfg_(cfg), vdd_(vdd), ctrl_(make_controller(cfg)) {
  period_permille_ = std::clamp<u32>(1000, cfg_.period_min_permille, cfg_.period_max_permille);
  period_lo_ = period_hi_ = period_permille_;
}

void ClockDomain::bind(obs::Registry& reg) {
  if (bound_) return;
  wall_units_ = reg.counter("dvfs.wall_units");
  epochs_c_ = reg.counter("dvfs.epochs");
  raises_ = reg.counter("dvfs.period_raises");
  drops_ = reg.counter("dvfs.period_drops");
  bound_ = true;
}

void ClockDomain::step_epoch(const EpochSample& s) {
  EpochStats e;
  e.epoch_index = traj_.size();
  e.committed = s.committed - last_.committed;
  e.cycles = s.cycles - last_.cycles;
  e.violations = s.violations - last_.violations;
  e.replays = s.replays - last_.replays;
  for (std::size_t i = 0; i < e.stage_violations.size(); ++i) {
    e.stage_violations[i] = s.stage_violations[i] - last_.stage_violations[i];
  }
  e.ipc = e.cycles > 0 ? static_cast<double>(e.committed) / static_cast<double>(e.cycles) : 0.0;
  e.violation_pct = e.committed > 0
                        ? 100.0 * static_cast<double>(e.violations) / static_cast<double>(e.committed)
                        : 0.0;
  const u64 slot_delta = s.total_slots - last_.total_slots;
  e.mem_fraction = slot_delta > 0 ? static_cast<double>(s.mem_slots - last_.mem_slots) /
                                        static_cast<double>(slot_delta)
                                  : 0.0;
  e.hot = s.hot;
  e.droopy = s.droopy;

  traj_.push_back(TrajectoryPoint{s.committed, period_permille_,
                                  static_cast<u32>(std::min<u64>(e.violations, 0xFFFFFFFFull))});
  epochs_c_.inc();

  if (ctrl_ != nullptr) {
    const u32 wish = ctrl_->next_period(e, period_permille_);
    const u32 next = std::clamp(wish, cfg_.period_min_permille, cfg_.period_max_permille);
    if (next > period_permille_) raises_.inc();
    if (next < period_permille_) drops_.inc();
    period_permille_ = next;
    period_lo_ = std::min(period_lo_, next);
    period_hi_ = std::max(period_hi_, next);
  }
  last_ = s;
}

void ClockDomain::save_state(snap::Writer& w) const {
  put_dvfs_config(w, cfg_);
  w.put_f64(vdd_);
  w.put_u32(period_permille_);
  w.put_u32(period_lo_);
  w.put_u32(period_hi_);
  w.put_u64(last_.committed);
  w.put_u64(last_.cycles);
  w.put_u64(last_.violations);
  w.put_u64(last_.replays);
  for (const u64 v : last_.stage_violations) w.put_u64(v);
  w.put_u64(last_.mem_slots);
  w.put_u64(last_.total_slots);
  w.put_u32(static_cast<u32>(traj_.size()));
  for (const TrajectoryPoint& p : traj_) {
    w.put_u64(p.committed);
    w.put_u32(p.period_permille);
    w.put_u32(p.violations);
  }
  if (ctrl_ != nullptr) ctrl_->save_state(w);
}

void ClockDomain::restore_state(snap::Reader& r) {
  const DvfsConfig saved = get_dvfs_config(r);
  if (saved.policy != cfg_.policy || saved.epoch != cfg_.epoch ||
      saved.period_min_permille != cfg_.period_min_permille ||
      saved.period_max_permille != cfg_.period_max_permille ||
      saved.step_permille != cfg_.step_permille) {
    throw snap::SnapshotError("dvfs config mismatch (snapshot policy " +
                              std::string(to_string(saved.policy)) + ", running " +
                              std::string(to_string(cfg_.policy)) + ")");
  }
  vdd_ = r.get_f64();
  period_permille_ = r.get_u32();
  period_lo_ = r.get_u32();
  period_hi_ = r.get_u32();
  last_.committed = r.get_u64();
  last_.cycles = r.get_u64();
  last_.violations = r.get_u64();
  last_.replays = r.get_u64();
  for (u64& v : last_.stage_violations) v = r.get_u64();
  last_.mem_slots = r.get_u64();
  last_.total_slots = r.get_u64();
  const u32 n = r.get_count("ADPT trajectory", 16);
  traj_.clear();
  traj_.reserve(n);
  for (u32 i = 0; i < n; ++i) {
    TrajectoryPoint p;
    p.committed = r.get_u64();
    p.period_permille = r.get_u32();
    p.violations = r.get_u32();
    traj_.push_back(p);
  }
  if (ctrl_ != nullptr) ctrl_->restore_state(r);
}

}  // namespace vasim::adapt
