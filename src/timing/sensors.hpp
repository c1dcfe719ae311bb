// Thermal and voltage-droop sensors plus the environment modulation they
// observe.
//
// Section 2.1.1: "The prediction also considers favorable conditions for
// timing errors through the use of thermal and voltage sensors."  We model
// the physical environment as a slow thermal wave plus faster stochastic
// supply droop; sensors expose thresholded views of that environment so the
// TEP can gate its predictions on unfavorable conditions.
#ifndef VASIM_TIMING_SENSORS_HPP
#define VASIM_TIMING_SENSORS_HPP

#include <optional>

#include "src/common/rng.hpp"
#include "src/common/types.hpp"

namespace vasim::timing {

/// Configuration of the physical environment modulation.
struct EnvironmentConfig {
  double thermal_amplitude = 0.005;   ///< +/-0.5% delay swing from temperature
  u64 thermal_period = 20000;         ///< cycles per thermal wave period
  double droop_amplitude = 0.004;     ///< sigma of supply-droop delay noise
  u64 droop_epoch = 16;               ///< cycles per droop re-draw
  double clamp = 0.015;               ///< total modulation clamped to +/-1.5%
  u64 seed = 0xd00dULL;
};

/// Deterministic delay-modulation source: multiplicative factor applied to
/// every sensitized path delay at a given cycle.
///
/// The thermal and total modulation are pure in the cycle and the droop
/// draw is pure in the droop epoch, so the queries memoize the last cycle's
/// and the last epoch's values: the fault oracle, the TEP's sensors and the
/// adaptive-clock epoch sample all read the same cycle and share one
/// computation.  A memo hit returns the bits a fresh computation would.
/// Not thread-safe: the const queries fill the memo.
class Environment {
 public:
  /// Throws std::invalid_argument when `thermal_period` or `droop_epoch`
  /// is zero (both divide the cycle count).
  explicit Environment(const EnvironmentConfig& cfg = {});

  /// Multiplicative delay modulation at `cycle`; mean 1.0, clamped to
  /// [1-clamp, 1+clamp].
  [[nodiscard]] double modulation(Cycle cycle) const { return at(cycle).modulation; }

  /// The thermal component alone (for the thermal sensor).
  [[nodiscard]] double thermal_component(Cycle cycle) const { return at(cycle).thermal; }

  /// The droop component alone (for the voltage sensor).
  [[nodiscard]] double droop_component(Cycle cycle) const;

  [[nodiscard]] const EnvironmentConfig& config() const { return cfg_; }

 private:
  struct CycleTerms {
    double thermal = 0.0;
    double modulation = 0.0;
  };
  /// The memoized terms of `cycle`, recomputed when the cycle changes.
  [[nodiscard]] const CycleTerms& at(Cycle cycle) const {
    if (memo_cycle_ != cycle) fill(cycle);
    return memo_;
  }
  void fill(Cycle cycle) const;

  EnvironmentConfig cfg_;
  mutable std::optional<Cycle> memo_cycle_;
  mutable CycleTerms memo_;
  mutable std::optional<u64> droop_epoch_;
  mutable double droop_ = 0.0;
};

/// A thresholded sensor over one environment component.  `hot()` reports
/// whether conditions currently favor timing violations.
class ThermalSensor {
 public:
  ThermalSensor(const Environment* env, double threshold = 0.0)
      : env_(env), threshold_(threshold) {}

  /// True when the thermal delay component exceeds the threshold (i.e. the
  /// die is in the slow half of the thermal wave).
  [[nodiscard]] bool hot(Cycle cycle) const { return env_->thermal_component(cycle) > threshold_; }

 private:
  const Environment* env_;
  double threshold_;
};

/// Supply-droop sensor; `droopy()` reports a sagging supply.
class VoltageSensor {
 public:
  VoltageSensor(const Environment* env, double threshold = 0.0)
      : env_(env), threshold_(threshold) {}

  [[nodiscard]] bool droopy(Cycle cycle) const {
    return env_->droop_component(cycle) > threshold_;
  }

 private:
  const Environment* env_;
  double threshold_;
};

}  // namespace vasim::timing

#endif  // VASIM_TIMING_SENSORS_HPP
