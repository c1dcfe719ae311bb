#include "src/cpu/inorder.hpp"

#include <algorithm>

namespace vasim::cpu {

InOrderPipeline::InOrderPipeline(const InOrderConfig& cfg, const SchemeConfig& scheme,
                                 isa::InstructionSource* source,
                                 const timing::FaultModel* fault_model,
                                 FaultPredictor* predictor)
    : cfg_(cfg), scheme_(scheme), source_(source), fault_model_(fault_model),
      predictor_(predictor), memory_(cfg.memory), bpred_(cfg.memory) {}

bool InOrderPipeline::step_one() {
  isa::DynInst di;
  if (!source_->next(di)) return false;

  // Front end: I-cache and redirect bubbles gate the earliest issue.
  const Cycle il = memory_.ifetch_latency(di.pc);
  if (il > cfg_.memory.l1i.latency) fetch_ready_ += il - cfg_.memory.l1i.latency;
  stats_.inc("ev.fetch");

  Cycle issue = std::max(now_ + 1, fetch_ready_);
  const auto ready = [&](int r) { return r == kNoReg ? 0 : reg_ready_[r]; };
  issue = std::max({issue, ready(di.src1), ready(di.src2)});

  // Prediction at decode.
  FaultPrediction pred;
  const bool faults_on = fault_model_ != nullptr && fault_model_->enabled();
  if (scheme_.use_predictor && predictor_ != nullptr && faults_on) {
    pred = predictor_->predict(di.pc, bpred_.history(), issue);
  }

  // Execution latency.
  Cycle lat = 1;
  switch (di.op) {
    case isa::OpClass::kIntMul: lat = cfg_.mul_latency; break;
    case isa::OpClass::kIntDiv: lat = cfg_.div_latency; break;
    case isa::OpClass::kLoad:
      lat = 1 + memory_.load_latency(di.mem_addr);
      stats_.inc("ev.dcache_read");
      break;
    case isa::OpClass::kStore:
      memory_.store_commit(di.mem_addr);
      stats_.inc("ev.dcache_write");
      break;
    default: break;
  }

  // Timing faults (Section 2.2's in-order handling degenerates to per-
  // instruction padding: with no scheduling freedom, every handled fault
  // stalls the machine for its extra cycle).
  if (faults_on) {
    const timing::FaultDecision d = fault_model_->query(
        di.pc, isa::is_mem(di.op) ? timing::FaultClass::kMemLike : timing::FaultClass::kAluLike,
        issue);
    if (d.faulty) {
      stats_.inc("fault.actual");
      const bool covered =
          pred.predicted && pred.stage == d.stage && (scheme_.vte || scheme_.error_padding);
      if (covered) {
        stats_.inc("fault.handled");
        lat += 1;  // padded stage: +1 that everything behind absorbs
      } else {
        stats_.inc("fault.replays");
        issue += scheme_.micro_stall_cycles;  // in-place replay holds the pipe
      }
      if (predictor_ != nullptr && scheme_.use_predictor) {
        predictor_->train(di.pc, bpred_.history(), true, d.stage);
      }
    } else if (pred.predicted) {
      stats_.inc("fault.false_positive");
      lat += 1;  // padding applied on the false alarm too
      if (predictor_ != nullptr && scheme_.use_predictor) {
        predictor_->train(di.pc, bpred_.history(), false, pred.stage);
      }
    }
  }

  // Branch resolution.
  if (di.op == isa::OpClass::kBranch) {
    const BranchPrediction bp = bpred_.predict(di.pc);
    const bool mispred = bp.taken != di.taken ||
                         (di.taken && (!bp.target_known || bp.target != di.next_pc));
    bpred_.update(di.pc, di.taken, di.next_pc);
    if (mispred) {
      stats_.inc("branch.mispredict");
      fetch_ready_ = issue + lat + static_cast<Cycle>(cfg_.frontend_depth);
    }
    stats_.inc("ev.fu.branch");
  } else {
    stats_.inc(di.op == isa::OpClass::kLoad || di.op == isa::OpClass::kStore ? "ev.fu.mem"
                                                                             : "ev.fu.alu");
  }

  if (di.dst != kNoReg) reg_ready_[di.dst] = issue + lat;
  now_ = issue;
  ++committed_;
  stats_.inc("ev.commit");
  return true;
}

PipelineResult InOrderPipeline::run(u64 max_committed, u64 warmup_committed) {
  while (committed_ < warmup_committed && step_one()) {
  }
  const StatSet base = stats_;
  const u64 base_committed = committed_;
  const Cycle base_cycles = now_;

  const u64 target = warmup_committed + max_committed;
  while (committed_ < target && step_one()) {
  }

  PipelineResult r;
  r.committed = committed_ - base_committed;
  r.cycles = now_ - base_cycles;
  r.stats = stats_.diff(base);
  memory_.export_stats(r.stats);
  r.stats.inc("cycles", r.cycles);
  return r;
}

}  // namespace vasim::cpu
