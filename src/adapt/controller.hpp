// DVFS controller policy interface and the two closed-loop policies.
//
// Controllers are stepped once per epoch (a fixed number of committed
// instructions) with the epoch's architectural and sensor features, and
// answer with the clock period for the next epoch.  All controller state is
// plain arithmetic over those features -- no RNG -- so a run is reproducible
// from (seed, config) alone and bit-identical across sweep worker counts.
// Every policy serializes its full state for snapshot/restore.
#ifndef VASIM_ADAPT_CONTROLLER_HPP
#define VASIM_ADAPT_CONTROLLER_HPP

#include <array>
#include <memory>
#include <vector>

#include "src/adapt/dvfs.hpp"
#include "src/snap/io.hpp"
#include "src/timing/stage.hpp"

namespace vasim::adapt {

/// Per-epoch deltas plus derived features handed to a controller step.
struct EpochStats {
  u64 epoch_index = 0;
  u64 committed = 0;   ///< instructions committed this epoch
  u64 cycles = 0;      ///< cycles elapsed this epoch
  u64 violations = 0;  ///< actual timing violations this epoch
  u64 replays = 0;     ///< replay recoveries this epoch
  std::array<u64, timing::kNumOooStages> stage_violations{};  ///< per-FU split
  double ipc = 0.0;
  double violation_pct = 0.0;  ///< violations / committed * 100
  double mem_fraction = 0.0;   ///< memory share of the epoch's CPI stack
  bool hot = false;            ///< thermal sensor: slow half of the wave
  bool droopy = false;         ///< voltage sensor: sagging supply
};

/// Policy interface.  `next_period` receives the period (permille) that was
/// in effect during the epoch just finished and returns the unclamped wish
/// for the next one; the ClockDomain clamps to [period_min, period_max].
class DvfsController {
 public:
  virtual ~DvfsController() = default;
  [[nodiscard]] virtual u32 next_period(const EpochStats& e, u32 current) = 0;
  virtual void save_state(snap::Writer& w) const = 0;
  virtual void restore_state(snap::Reader& r) = 0;
};

/// Sensor-gated threshold controller (the paper's TEP assumption): raise the
/// period proportionally to violation-rate overshoot, lower it one step after
/// `quiet_epochs` consecutive under-budget epochs -- but never lower while a
/// thermal or droop sensor reports adverse conditions.
class ReactiveController final : public DvfsController {
 public:
  explicit ReactiveController(const DvfsConfig& cfg) : cfg_(cfg) {}
  [[nodiscard]] u32 next_period(const EpochStats& e, u32 current) override;
  void save_state(snap::Writer& w) const override;
  void restore_state(snap::Reader& r) override;

 private:
  DvfsConfig cfg_;
  u32 quiet_ = 0;
};

/// Online table + linear model: one bucket per `step_permille` of period
/// range, each holding EWMAs of the observed violation rate and CPI; a small
/// linear model over epoch features (IPC, per-FU violation rates, memory CPI
/// share) predicts CPI for never-visited buckets, with an optimistic prior
/// that drives deterministic downward exploration.  Each step picks the
/// bucket minimizing predicted wall time per instruction, period * CPI,
/// subject to the violation budget.
class PredictiveController final : public DvfsController {
 public:
  explicit PredictiveController(const DvfsConfig& cfg);
  [[nodiscard]] u32 next_period(const EpochStats& e, u32 current) override;
  void save_state(snap::Writer& w) const override;
  void restore_state(snap::Reader& r) override;

  [[nodiscard]] std::size_t buckets() const { return viol_.size(); }

 private:
  [[nodiscard]] std::size_t bucket_of(u32 period) const;
  [[nodiscard]] u32 period_of(std::size_t b) const;
  [[nodiscard]] double predicted_viol(std::size_t b) const;

  DvfsConfig cfg_;
  std::vector<double> viol_;    ///< EWMA violation pct per bucket
  std::vector<double> cpi_;     ///< EWMA cycles-per-instruction per bucket
  std::vector<u64> visits_;
  std::array<double, 4> w_{};   ///< linear CPI model: 1, ipc, mem_frac, viol_pct
  u64 steps_ = 0;
};

/// Factory; kStatic yields nullptr (no controller is ever attached).
std::unique_ptr<DvfsController> make_controller(const DvfsConfig& cfg);

}  // namespace vasim::adapt

#endif  // VASIM_ADAPT_CONTROLLER_HPP
