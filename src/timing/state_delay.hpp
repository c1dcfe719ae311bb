// State/input-dependent statistical delay model (ROADMAP item 4).
//
// The static path model assigns each PC one mu+2sigma path factor; real
// sensitized-path delay also depends on *which* inputs toggle (Pirbadian et
// al., arXiv 1403.2785, model delay distributions conditioned on input
// state).  This layer upgrades the per-PC constant to a per-(PC, operand
// state) distribution: each FaultClass carries a delay distribution whose
// mean shifts with an operand-toggle proxy and whose sigma widens as the
// supply drops below nominal (lower vdd amplifies the state-dependent
// spread).  The per-class base parameters are drawn once per run from a
// Pcg32 stream seeded from the workload seed and perturbed by the existing
// ProcessVariation draws; per-instance deviates are stateless hash draws,
// so the model is deterministic and query-order independent like the rest
// of the timing stack.  The per-instance draws are memoized by their hash
// key, so an instance retried on a busy functional unit reuses its Gaussian
// instead of redrawing it (a hit returns the bits a fresh draw would).
//
// The model is only attached for adaptive-clock runs (src/adapt/); static
// runs keep the legacy per-PC constant bit-for-bit.
#ifndef VASIM_TIMING_STATE_DELAY_HPP
#define VASIM_TIMING_STATE_DELAY_HPP

#include <array>

#include "src/common/rng.hpp"
#include "src/common/types.hpp"
#include "src/timing/memo.hpp"
#include "src/timing/path_model.hpp"
#include "src/timing/process_variation.hpp"

namespace vasim::timing {

inline constexpr int kNumFaultClasses = 2;  // kAluLike, kMemLike

/// Calibration of the state-dependent spread.  Magnitudes are a few permille
/// so the state term perturbs the band geometry rather than replacing it.
struct StateDelayConfig {
  u64 seed = 1;
  double mu_spread = 0.004;       ///< sigma of the per-class mean draw
  double sigma_base = 0.003;      ///< per-instance sigma at nominal supply
  double sigma_vdd_slope = 0.03;  ///< extra sigma per volt below nominal
  double toggle_weight = 0.005;   ///< mean shift span across toggle activity
  double clamp = 0.02;            ///< factor clamped to 1 +/- clamp
  double vdd_nominal = 1.10;
};

/// Multiplicative delay factor ~N(mu(cls, toggle), sigma(vdd)) around 1.0,
/// applied on top of the per-PC path factor.  Not thread-safe: factor()
/// fills a memo of recent per-instance draws.
class StateDelayModel {
 public:
  StateDelayModel(const StateDelayConfig& cfg, const ProcessVariation& pv, double vdd);

  /// Delay factor for one dynamic instance.  `state_sig` is the operand
  /// signature (hash of source registers / memory address) standing in for
  /// the toggled-input vector.
  [[nodiscard]] double factor(Pc pc, u64 state_sig, FaultClass cls) const;

  [[nodiscard]] double mu(FaultClass cls) const { return mu_[static_cast<int>(cls)]; }
  [[nodiscard]] double sigma() const { return sigma_; }
  [[nodiscard]] const StateDelayConfig& config() const { return cfg_; }

 private:
  /// The per-instance draws, pure in the instance's hash key.
  struct Draws {
    double toggle;
    double gauss;
  };

  StateDelayConfig cfg_;
  std::array<double, kNumFaultClasses> mu_{};
  double sigma_ = 0.0;
  // Small: it only has to hold the instances of the last few cycles.
  mutable MemoTable<Draws, 8> draws_;
};

}  // namespace vasim::timing

#endif  // VASIM_TIMING_STATE_DELAY_HPP
