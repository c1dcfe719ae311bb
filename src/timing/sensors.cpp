#include "src/timing/sensors.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace vasim::timing {

Environment::Environment(const EnvironmentConfig& cfg) : cfg_(cfg) {
  if (cfg.thermal_period == 0) {
    throw std::invalid_argument("Environment: thermal_period must be > 0");
  }
  if (cfg.droop_epoch == 0) {
    throw std::invalid_argument("Environment: droop_epoch must be > 0");
  }
}

double Environment::droop_component(Cycle cycle) const {
  const u64 epoch = cycle / cfg_.droop_epoch;
  if (droop_epoch_ != epoch) {
    const double g = hash_to_gaussian(hash_combine(cfg_.seed, epoch));
    droop_ = std::clamp(cfg_.droop_amplitude * g, -2.5 * cfg_.droop_amplitude,
                        2.5 * cfg_.droop_amplitude);
    droop_epoch_ = epoch;
  }
  return droop_;
}

void Environment::fill(Cycle cycle) const {
  const double phase = 2.0 * std::numbers::pi *
                       static_cast<double>(cycle % cfg_.thermal_period) /
                       static_cast<double>(cfg_.thermal_period);
  memo_.thermal = cfg_.thermal_amplitude * std::sin(phase);
  const double m = memo_.thermal + droop_component(cycle);
  memo_.modulation = 1.0 + std::clamp(m, -cfg_.clamp, cfg_.clamp);
  memo_cycle_ = cycle;
}

}  // namespace vasim::timing
