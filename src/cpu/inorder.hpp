// In-order reference core.
//
// A scalar, stall-on-use pipeline sharing the caches, branch predictor,
// fault model and predictor interfaces with the OoO core.  Its purpose is
// comparative: with no scheduling freedom, a predicted-faulty instruction's
// extra cycle delays everything behind it, so violation-aware scheduling
// degenerates to Error Padding -- quantifying how much of the paper's win
// comes specifically from the out-of-order window's architectural slack
// (see bench_inorder).
#ifndef VASIM_CPU_INORDER_HPP
#define VASIM_CPU_INORDER_HPP

#include "src/cpu/cache.hpp"
#include "src/cpu/branch_pred.hpp"
#include "src/cpu/config.hpp"
#include "src/cpu/hooks.hpp"
#include "src/cpu/pipeline.hpp"
#include "src/isa/dyninst.hpp"
#include "src/isa/program.hpp"
#include "src/timing/fault_model.hpp"

namespace vasim::cpu {

/// Configuration of the in-order core.
struct InOrderConfig {
  int frontend_depth = 5;       ///< fetch-to-execute bubble on redirect
  Cycle mul_latency = 3;
  Cycle div_latency = 12;
  CoreConfig memory;            ///< cache geometry reused from the OoO config
};

/// Scalar in-order timing model.  The issue time of each instruction is the
/// max of (previous issue + 1, operand-ready times, front-end readiness);
/// there is full bypassing, so a producer's result is usable the cycle after
/// its execution completes.
class InOrderPipeline {
 public:
  InOrderPipeline(const InOrderConfig& cfg, const SchemeConfig& scheme,
                  isa::InstructionSource* source, const timing::FaultModel* fault_model,
                  FaultPredictor* predictor);

  /// Runs `max_committed` instructions after `warmup_committed` of warmup.
  PipelineResult run(u64 max_committed, u64 warmup_committed = 0);

  [[nodiscard]] u64 committed() const { return committed_; }
  [[nodiscard]] Cycle now() const { return now_; }

 private:
  /// Executes one instruction; returns false when the source drains.
  bool step_one();

  InOrderConfig cfg_;
  SchemeConfig scheme_;
  isa::InstructionSource* source_;
  const timing::FaultModel* fault_model_;
  FaultPredictor* predictor_;

  MemoryHierarchy memory_;
  BranchPredictor bpred_;

  Cycle now_ = 0;           ///< issue time of the most recent instruction
  Cycle fetch_ready_ = 0;   ///< earliest next issue due to front-end redirects
  Cycle reg_ready_[isa::kNumArchRegs] = {};
  u64 committed_ = 0;
  StatSet stats_;
};

}  // namespace vasim::cpu

#endif  // VASIM_CPU_INORDER_HPP
