#include "src/timing/state_delay.hpp"

#include <algorithm>

namespace vasim::timing {

StateDelayModel::StateDelayModel(const StateDelayConfig& cfg, const ProcessVariation& pv,
                                 double vdd)
    : cfg_(cfg) {
  // Per-class mean: one Pcg32 draw per class, scaled by mu_spread, then
  // perturbed by the class's process-variation gate draw so two dies with
  // identical seeds but different process configs disagree (the "seeded from
  // ProcessVariation" contract).
  Pcg32 rng(hash_combine(cfg.seed, 0xada97c10ULL), 0x57a7ed31ULL);
  for (int c = 0; c < kNumFaultClasses; ++c) {
    const double base = rng.next_gaussian() * cfg.mu_spread;
    const double pv_draw = pv.delay_factor(cfg.seed, 0x51a7e000ULL + static_cast<u64>(c));
    mu_[c] = 1.0 + base + (pv_draw - 1.0) * 0.25;
  }
  sigma_ = cfg.sigma_base +
           cfg.sigma_vdd_slope * std::max(0.0, cfg.vdd_nominal - vdd);
}

double StateDelayModel::factor(Pc pc, u64 state_sig, FaultClass cls) const {
  const int c = static_cast<int>(cls);
  const u64 h = hash_combine(hash_combine(cfg_.seed, state_sig),
                             pc ^ (static_cast<u64>(c) << 56));
  const Draws& d = draws_.get(h, h, [](u64 key) {
    // Toggle-activity proxy in [0,1): the fraction of the sensitized cone
    // this operand state toggles.  High activity lengthens the effective path.
    return Draws{hash_to_unit(key), hash_to_gaussian(hash_mix(key ^ 0x70991eULL))};
  });
  const double f = mu_[c] + cfg_.toggle_weight * (d.toggle - 0.5) + sigma_ * d.gauss;
  return std::clamp(f, 1.0 - cfg_.clamp, 1.0 + cfg_.clamp);
}

}  // namespace vasim::timing
