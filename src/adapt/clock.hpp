// Adaptive clock domain: owns the current period, the controller, the
// trajectory record and the registry counters that fold adaptive behavior
// into checksums and the timeline.
//
// The pipeline drives it with one tick() per simulated cycle (accumulating
// `dvfs.wall_units` in permille-cycles, the run's simulated wall time) and
// one step_epoch() per epoch boundary, the same committed-count re-arm
// discipline as the timeline sampler -- so the controller steps at identical
// points whichever sweep worker runs the job, and runs are bit-identical
// across worker counts.
#ifndef VASIM_ADAPT_CLOCK_HPP
#define VASIM_ADAPT_CLOCK_HPP

#include <memory>
#include <vector>

#include "src/adapt/controller.hpp"
#include "src/adapt/dvfs.hpp"
#include "src/obs/registry.hpp"
#include "src/snap/io.hpp"

namespace vasim::adapt {

/// Cumulative totals at an epoch boundary; the clock domain differences
/// consecutive samples itself.
struct EpochSample {
  u64 committed = 0;
  u64 cycles = 0;
  u64 violations = 0;
  u64 replays = 0;
  std::array<u64, timing::kNumOooStages> stage_violations{};
  u64 mem_slots = 0;    ///< cumulative memory CPI slots
  u64 total_slots = 0;  ///< cumulative total commit slots (cycles * width)
  bool hot = false;
  bool droopy = false;
};

/// One epoch of the controller trajectory, for reports and the sweep JSON.
struct TrajectoryPoint {
  u64 committed = 0;       ///< cumulative commits at the epoch boundary
  u32 period_permille = 0; ///< period in effect during the finished epoch
  u32 violations = 0;      ///< violations within the epoch
};

class ClockDomain {
 public:
  ClockDomain(const DvfsConfig& cfg, double vdd);

  /// Registers the dvfs counters in the pipeline's registry.  Idempotent;
  /// must run before the timeline sampler freezes its column set and before
  /// any registry save/restore.
  void bind(obs::Registry& reg);

  /// One simulated cycle at the current period.
  void tick() { wall_units_.inc(period_permille_); }

  /// Controller step at an epoch boundary.
  void step_epoch(const EpochSample& s);

  [[nodiscard]] u64 epoch_interval() const { return cfg_.epoch; }
  [[nodiscard]] u32 period_permille() const { return period_permille_; }
  [[nodiscard]] double period_scale() const { return static_cast<double>(period_permille_) * 1e-3; }
  [[nodiscard]] const DvfsConfig& config() const { return cfg_; }
  [[nodiscard]] double vdd() const { return vdd_; }
  [[nodiscard]] const std::vector<TrajectoryPoint>& trajectory() const { return traj_; }
  [[nodiscard]] u64 epochs() const { return traj_.size(); }
  [[nodiscard]] u32 period_lo() const { return period_lo_; }
  [[nodiscard]] u32 period_hi() const { return period_hi_; }
  [[nodiscard]] u64 wall_units() const { return wall_units_.valid() ? wall_units_.value() : 0; }

  /// Full controller + domain state for the snapshot ADPT chunk.  Counter
  /// values live in the pipeline registry and ride the PIPE chunk.
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

 private:
  DvfsConfig cfg_;
  double vdd_;
  std::unique_ptr<DvfsController> ctrl_;
  u32 period_permille_ = 1000;
  u32 period_lo_ = 1000;
  u32 period_hi_ = 1000;
  EpochSample last_{};
  std::vector<TrajectoryPoint> traj_;
  bool bound_ = false;
  obs::Counter wall_units_;
  obs::Counter epochs_c_;
  obs::Counter raises_;
  obs::Counter drops_;
};

}  // namespace vasim::adapt

#endif  // VASIM_ADAPT_CLOCK_HPP
