// The pipeline's one event stream.
//
// A SchedHooks sink sees every instruction lifecycle event (fetch,
// dispatch, issue, completion, commit, squash) together with the
// cycle-level scheduling decisions the paper's rules constrain: select-pass
// visit order and outcomes, FU reservations (the FUSR of Section 3.3.3),
// tag broadcasts with their CDL dependent counts (Section 3.5.2),
// Error-Padding stall and Razor replay events, and the per-cycle freeze /
// LSQ CAM-block state.  The semantics checker (src/check/semantics.hpp),
// the Kanata and Perfetto trace writers (src/cpu/trace_sinks.hpp) and the
// runner's commit trail are all sinks of this stream; any number of them
// share one pipeline (Pipeline::add_check_hooks).  The pipeline never reads
// anything back from a sink, so attaching one cannot perturb simulation
// results, and with none attached each emission site costs one predictable
// branch.
#ifndef VASIM_CPU_CHECK_HOOKS_HPP
#define VASIM_CPU_CHECK_HOOKS_HPP

#include "src/common/types.hpp"
#include "src/cpu/sched_kernel.hpp"
#include "src/isa/dyninst.hpp"

namespace vasim::cpu {

/// Always true: every build emits the stream.  Kept because benchmark
/// reports record it.
inline constexpr bool kCheckHooksEnabled = true;

/// What happened to one candidate the select stage visited.
enum class SelectOutcome : u8 {
  kIssued,       ///< selected and left the issue queue
  kFuBusy,       ///< structural hazard: no functional unit free (FUSR)
  kLoadBlocked,  ///< load gated by an un-issued older matching store
};

/// Pipeline event sink.  All callbacks default to no-ops; every InstState
/// and DynInst reference is only valid for the duration of the call.
/// Sequence numbers are re-assigned after a squash.
class SchedHooks {
 public:
  virtual ~SchedHooks() = default;

  /// Start of a scheduling step (never fired for global-stall cycles) with
  /// the freeze state that constrains this cycle's selection.
  virtual void on_cycle_start(Cycle now, int slots_frozen, bool mem_blocked) {
    (void)now, (void)slots_frozen, (void)mem_blocked;
  }
  /// An instruction entered the front end, on the true path or (with
  /// CoreConfig::model_wrong_path) down a mispredicted branch's wrong path.
  virtual void on_fetched(Cycle now, SeqNum seq, const isa::DynInst& di) {
    (void)now, (void)seq, (void)di;
  }
  /// One global-stall cycle applied (EP padding or replay recirculation).
  /// All pending event/FU reservations shift by one with it.
  virtual void on_global_stall(Cycle now, bool ep_padding) { (void)now, (void)ep_padding; }
  /// Instruction entered the issue window (rename complete, fault
  /// prediction attached).
  virtual void on_dispatched(Cycle now, const InstState& is) { (void)now, (void)is; }
  /// A selection pass begins: pass 0 visits the policy's preferred class
  /// (FFS predicted-faulty, CDS predicted-faulty-and-critical), pass 1 the
  /// remainder (everything, for plain age order).
  virtual void on_select_pass(Cycle now, int pass) { (void)now, (void)pass; }
  /// The select stage considered one candidate (in scan order).
  virtual void on_select_visit(Cycle now, const InstState& is, SelectOutcome outcome) {
    (void)now, (void)is, (void)outcome;
  }
  /// A functional unit was reserved; `next_free` is the first cycle the
  /// unit accepts again (includes the VTE freeze cycle when applicable).
  virtual void on_fu_allocated(Cycle now, const InstState& is, int unit, Cycle next_free) {
    (void)now, (void)is, (void)unit, (void)next_free;
  }
  /// Issue succeeded; `exec_lat` is the operation latency, `lat_delta` the
  /// extra cycles added by the VTE pad and/or safe-mode re-execution.
  virtual void on_issued(Cycle now, const InstState& is, Cycle exec_lat, Cycle lat_delta) {
    (void)now, (void)is, (void)exec_lat, (void)lat_delta;
  }
  /// A load/store performed its LSQ CAM search this cycle.
  virtual void on_lsq_search(Cycle now, const InstState& is) { (void)now, (void)is; }
  /// Result-tag broadcast; `deps` is the CDL count of waiting dependents
  /// woken by this tag.
  virtual void on_tag_broadcast(Cycle now, const InstState& is, int deps) {
    (void)now, (void)is, (void)deps;
  }
  /// CDL criticality feedback sent to the predictor.
  virtual void on_mark_critical(Cycle now, const InstState& is, int deps, bool critical) {
    (void)now, (void)is, (void)deps, (void)critical;
  }
  /// Execution finished (writeback complete, retire-eligible next).
  virtual void on_completed(Cycle now, const InstState& is) { (void)now, (void)is; }
  /// An Error-Padding stall event fired for this instruction's transit.
  virtual void on_ep_stall(Cycle now, const InstState& is) { (void)now, (void)is; }
  /// A Razor replay fired for an unpredicted (or mispredicted-stage) fault.
  virtual void on_replay(Cycle now, const InstState& is) { (void)now, (void)is; }
  /// Head-of-ROB retirement (program order).
  virtual void on_committed(Cycle now, const InstState& is) { (void)now, (void)is; }
  /// Sequence numbers [first, last] were squashed and will be recycled.
  virtual void on_squashed(Cycle now, SeqNum first, SeqNum last) {
    (void)now, (void)first, (void)last;
  }
};

}  // namespace vasim::cpu

#endif  // VASIM_CPU_CHECK_HOOKS_HPP
