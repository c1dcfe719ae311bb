#include "src/timing/fault_model.hpp"

namespace vasim::timing {

FaultModel::FaultModel(const PathModelConfig& path_cfg, double vdd, const VoltageModel& vm,
                       const EnvironmentConfig& env_cfg)
    : vm_(vm), paths_(path_cfg, vm), env_(env_cfg), vdd_(vdd),
      delay_scale_(vm.delay_scale(vdd)) {}

FaultModel::InOrderTerms FaultModel::compute_inorder_terms(Pc pc) const {
  // Reuse the OoO per-PC population, thinned to the in-order rate: only PCs
  // in the faulty band whose secondary draw clears the scale fault here.
  InOrderTerms t{};
  t.path_factor = paths_.compute_factor(hash_mix(pc ^ 0x1a0cdeULL));
  const u64 h = hash_combine(hash_combine(paths_.config().seed, 0x10de7ULL), pc);
  t.thin = hash_to_unit(h);
  // Rename/dispatch/retire dominate; fetch/decode stay rare ([17]).
  const double u = hash_to_unit(hash_mix(h ^ 0x5151ULL));
  if (u < 0.35) {
    t.stage = InOrderStage::kRename;
  } else if (u < 0.70) {
    t.stage = InOrderStage::kDispatch;
  } else if (u < 0.90) {
    t.stage = InOrderStage::kRetire;
  } else if (u < 0.95) {
    t.stage = InOrderStage::kFetch;
  } else {
    t.stage = InOrderStage::kDecode;
  }
  return t;
}

InOrderFaultDecision FaultModel::query_inorder(Pc pc, Cycle cycle, double inorder_scale) const {
  InOrderFaultDecision d;
  if (!enabled() || inorder_scale <= 0.0) return d;
  const InOrderTerms t = compute_inorder_terms(pc);
  if (t.path_factor * delay_scale_ * env_.modulation(cycle) <= 1.0) return d;
  if (t.thin >= inorder_scale) return d;
  d.faulty = true;
  d.stage = t.stage;
  return d;
}

FaultDecision FaultModel::query(Pc pc, FaultClass cls, Cycle cycle) const {
  const PathTerms& t = paths_.terms(pc);
  FaultDecision d;
  d.path_factor = t.factor;
  d.stage = t.stage(cls);
  const double scaled = d.path_factor * delay_scale_;
  d.core_faulty = scaled > 1.0;
  d.faulty = scaled * env_.modulation(cycle) > 1.0;
  return d;
}

FaultDecision FaultModel::query_adaptive(Pc pc, FaultClass cls, Cycle cycle,
                                         double period_scale, u64 state_sig) const {
  const PathTerms& t = paths_.terms(pc);
  FaultDecision d;
  d.path_factor = t.factor;
  d.stage = t.stage(cls);
  double scaled = d.path_factor * delay_scale_;
  if (state_model_ != nullptr) scaled *= state_model_->factor(pc, state_sig, cls);
  d.core_faulty = scaled > period_scale;
  d.faulty = scaled * env_.modulation(cycle) > period_scale;
  return d;
}

InOrderFaultDecision FaultModel::query_inorder_adaptive(Pc pc, Cycle cycle,
                                                        double inorder_scale,
                                                        double period_scale) const {
  InOrderFaultDecision d;
  if (inorder_scale <= 0.0) return d;
  const InOrderTerms t = compute_inorder_terms(pc);
  if (t.path_factor * delay_scale_ * env_.modulation(cycle) <= period_scale) return d;
  if (t.thin >= inorder_scale) return d;
  d.faulty = true;
  d.stage = t.stage;
  return d;
}

}  // namespace vasim::timing
