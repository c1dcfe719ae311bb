// Dynamic timing-fault oracle combining the per-PC path population, the
// alpha-power voltage scaling and the environmental modulation.
//
// Section 4.3: "Faults are assumed to occur when the 95% confidence interval
// of the stage delay exceeds the cycle time (mu + 2 sigma)."  The path
// factor already encodes mu+2sigma at the nominal supply; a dynamic instance
// at cycle c and supply V violates timing iff
//
//   path_factor(pc) * delay_scale(V) * modulation(c) > 1.0 .
//
// The first two terms are per-PC/per-supply constants (the predictable
// component); the modulation term flips instances near the boundary, which
// is what produces the occasional mispredicted fault handled by replay.
//
// The pure terms are memoized: the path model keeps a per-PC table, the
// environment the last cycle's modulation and the last droop epoch's draw,
// and the state-delay model its last per-instance draws.  Every hit returns
// the bits a fresh computation would, so the memos change cost, never a
// decision.  The in-order terms are computed per query: only fetch asks for
// them, once per instruction, so there are no retries to save.
#ifndef VASIM_TIMING_FAULT_MODEL_HPP
#define VASIM_TIMING_FAULT_MODEL_HPP

#include "src/timing/path_model.hpp"
#include "src/timing/sensors.hpp"
#include "src/timing/stage.hpp"
#include "src/timing/state_delay.hpp"
#include "src/timing/voltage.hpp"

namespace vasim::timing {

/// Outcome of querying the oracle for one dynamic instruction instance.
struct FaultDecision {
  bool faulty = false;        ///< this instance actually violates timing
  bool core_faulty = false;   ///< the deterministic (recurring) component
  OooStage stage = OooStage::kIssueSelect;  ///< where the violation occurs
  double path_factor = 0.0;   ///< mu+2sigma delay / nominal cycle time
};

/// Outcome of an in-order-engine query (Section 2.2).
struct InOrderFaultDecision {
  bool faulty = false;
  InOrderStage stage = InOrderStage::kRename;
};

/// Per-run fault oracle.  One instance per (workload, supply) simulation,
/// used by one thread at a time: the const queries fill the memos of its
/// path model, its environment and its state-delay model, so a FaultModel
/// (and the StateDelayModel attached to it) must not be shared between
/// threads that query concurrently.
class FaultModel {
 public:
  FaultModel(const PathModelConfig& path_cfg, double vdd,
             const VoltageModel& vm = VoltageModel(),
             const EnvironmentConfig& env_cfg = {});

  /// Decision for the dynamic instance of `pc` evaluated at `cycle`.
  [[nodiscard]] FaultDecision query(Pc pc, FaultClass cls, Cycle cycle) const;

  /// In-order engine faults are far rarer than OoO ones (Section 2.2 /
  /// [17]: fetch and decode see small thermal/voltage fluctuation);
  /// `inorder_scale` is their rate relative to the OoO population.
  [[nodiscard]] InOrderFaultDecision query_inorder(Pc pc, Cycle cycle,
                                                   double inorder_scale = 0.05) const;

  /// Adaptive-clock query: the violation condition generalizes to
  ///   path_factor * delay_scale * state_factor * modulation > period_scale
  /// where `period_scale` is the current clock period as a fraction of the
  /// nominal period (src/adapt/ DVFS controllers move it) and the optional
  /// state-dependent model (set_state_model) contributes the per-instance
  /// operand-toggle factor.  With period_scale == 1.0 and no state model the
  /// decision is bit-identical to query(); static runs never call this path.
  [[nodiscard]] FaultDecision query_adaptive(Pc pc, FaultClass cls, Cycle cycle,
                                             double period_scale, u64 state_sig) const;

  /// Adaptive-clock in-order query; unlike query_inorder this does not
  /// short-circuit on enabled(), because an overclocked period can violate
  /// even at the nominal supply.
  [[nodiscard]] InOrderFaultDecision query_inorder_adaptive(Pc pc, Cycle cycle,
                                                            double inorder_scale,
                                                            double period_scale) const;

  /// Attaches (or detaches, with nullptr) the state-dependent delay model
  /// used by the adaptive queries.  Not owned.
  void set_state_model(const StateDelayModel* m) { state_model_ = m; }

  /// True when the configured supply can produce faults at all.
  [[nodiscard]] bool enabled() const { return delay_scale_ > 1.0 / 0.97; }

  [[nodiscard]] double vdd() const { return vdd_; }
  [[nodiscard]] double delay_scale() const { return delay_scale_; }
  [[nodiscard]] const SensitizedPathModel& paths() const { return paths_; }
  [[nodiscard]] const Environment& environment() const { return env_; }
  [[nodiscard]] const VoltageModel& voltage_model() const { return vm_; }

 private:
  /// The per-PC constants of an in-order query.
  struct InOrderTerms {
    double path_factor;  ///< OoO population factor of a hashed key
    double thin;         ///< secondary draw compared to inorder_scale
    InOrderStage stage;
  };
  [[nodiscard]] InOrderTerms compute_inorder_terms(Pc pc) const;

  VoltageModel vm_;
  SensitizedPathModel paths_;
  Environment env_;
  double vdd_;
  double delay_scale_;
  const StateDelayModel* state_model_ = nullptr;
};

}  // namespace vasim::timing

#endif  // VASIM_TIMING_FAULT_MODEL_HPP
