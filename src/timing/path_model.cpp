#include "src/timing/path_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace vasim::timing {
namespace {

// Fraction of each fault band drawn in its "deep" (always-faulty) region as
// opposed to its modulation-sensitive boundary region.
constexpr double kDeepFraction = 0.70;
// Empirical mean fault probability of a boundary-region instance under the
// default environment modulation.
constexpr double kBoundaryHitRate = 0.60;

}  // namespace

SensitizedPathModel::SensitizedPathModel(const PathModelConfig& cfg, const VoltageModel& vm)
    : cfg_(cfg) {
  if (cfg.p_faulty_low < 0 || cfg.p_faulty_high < cfg.p_faulty_low) {
    throw std::invalid_argument("SensitizedPathModel: need 0 <= p_low <= p_high");
  }
  theta_low_ = 1.0 / vm.delay_scale(SupplyPoints::kLowFault);
  theta_high_ = 1.0 / vm.delay_scale(SupplyPoints::kHighFault);
  // Expected dynamic hit rate of a band = deep mass + boundary mass * hit rate.
  const double band_yield = kDeepFraction + (1.0 - kDeepFraction) * kBoundaryHitRate;
  band_both_ = std::min(0.5, cfg.p_faulty_low / band_yield);
  const double residual_high = std::max(0.0, cfg.p_faulty_high - band_both_);
  band_high_only_ = std::min(0.5, residual_high / band_yield);
}

double SensitizedPathModel::compute_factor(Pc pc) const {
  const u64 h = hash_combine(hash_combine(cfg_.seed, 0xfac7ULL), pc);
  // Band membership uses a golden-ratio low-discrepancy sequence over the
  // static instruction index (plus a per-workload phase), so the faulty
  // fraction of any contiguous-code hot set tracks the configured
  // probability tightly; the within-band position stays hash-derived.
  constexpr double kGolden = 0.6180339887498949;
  const double phase = hash_to_unit(hash_mix(cfg_.seed ^ 0x9fadeULL));
  // Mask the index so the product stays within double precision (a full
  // 64-bit value would lose its fractional part entirely).
  double u = static_cast<double>((pc >> 2) & 0xFFFFFFFFULL) * kGolden + phase;
  u -= static_cast<double>(static_cast<u64>(u));
  const double v = hash_to_unit(hash_mix(h ^ 0x1234abcdULL));
  // Band geometry relative to the supply thresholds:
  //   deep-both:        always faulty at 1.04 V (and 0.97 V)
  //   boundary-both:    faulty at 1.04 V only under adverse modulation
  //   deep-high:        always faulty at 0.97 V, never at 1.04 V
  //   boundary-high:    faulty at 0.97 V only under adverse modulation
  //   safe:             never faulty at any studied supply
  if (u < band_both_) {
    if (v < kDeepFraction) return theta_low_ * 1.011 + v * 0.003;  // ~[0.966, 0.968]
    return theta_low_ * 1.0015 + v * 0.006;                        // ~[0.957, 0.963]
  }
  if (u < band_both_ + band_high_only_) {
    if (v < kDeepFraction) return theta_high_ * 1.017 + v * 0.028;  // ~[0.916, 0.936]
    return theta_high_ * 1.0015 + v * 0.012;                        // ~[0.902, 0.913]
  }
  // Safe population: broad spread well under the 0.97 V threshold.
  return 0.30 + 0.585 * v;  // [0.30, 0.885]
}

PathTerms SensitizedPathModel::compute_terms(Pc pc) const {
  PathTerms t{};
  t.factor = compute_factor(pc);
  const u64 h = hash_combine(hash_combine(cfg_.seed, 0x57a9eULL), pc);
  const double u = hash_to_unit(h);
  // LSQ CAM search is the second hot spot after wakeup/select (Sec. 3.3.4).
  if (u < 0.55) {
    t.mem_stage = OooStage::kIssueSelect;
  } else if (u < 0.88) {
    t.mem_stage = OooStage::kMemory;
  } else if (u < 0.94) {
    t.mem_stage = OooStage::kRegRead;
  } else {
    t.mem_stage = OooStage::kWriteback;
  }
  // "Almost all timing errors happen in the wakeup/select stage" (Sec 3.3.1).
  if (u < 0.70) {
    t.alu_stage = OooStage::kIssueSelect;
  } else if (u < 0.88) {
    t.alu_stage = OooStage::kExecute;
  } else if (u < 0.95) {
    t.alu_stage = OooStage::kRegRead;
  } else {
    t.alu_stage = OooStage::kWriteback;
  }
  return t;
}

double SensitizedPathModel::commonality(Pc pc) const {
  const u64 h = hash_combine(hash_combine(cfg_.seed, 0xc0117ULL), pc);
  const double g = hash_to_gaussian(h);
  return std::clamp(0.90 + 0.03 * g, 0.75, 0.98);
}

}  // namespace vasim::timing
