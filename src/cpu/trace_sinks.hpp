// Trace writers that ride the pipeline's event stream (SchedHooks).
//
// KanataTraceWriter turns lifecycle events into a Kanata-format pipeline
// visualization log (https://github.com/shioyadan/Konata), which is
// invaluable when debugging scheduling interactions like slot freezes and
// replays; TraceObserver streams the same lifecycle as Chrome-trace spans
// for Perfetto.  Both can watch one run (Pipeline::add_check_hooks).
#ifndef VASIM_CPU_TRACE_SINKS_HPP
#define VASIM_CPU_TRACE_SINKS_HPP

#include <ostream>
#include <vector>

#include "src/common/types.hpp"
#include "src/cpu/check_hooks.hpp"
#include "src/obs/trace.hpp"

namespace vasim::cpu {

/// Writes a Kanata 0004 log.  Stages emitted: F (fetch/front end),
/// Ds (dispatch/queue), Is (issue/execute), Cm (completed, waiting for
/// retire).  Predicted-faulty instructions are annotated.
class KanataTraceWriter final : public SchedHooks {
 public:
  /// `out` must outlive the writer.  `max_instructions` caps the log size.
  explicit KanataTraceWriter(std::ostream* out, u64 max_instructions = 10'000);

  void on_fetched(Cycle now, SeqNum seq, const isa::DynInst& di) override;
  void on_dispatched(Cycle now, const InstState& is) override;
  void on_issued(Cycle now, const InstState& is, Cycle exec_lat, Cycle lat_delta) override;
  void on_completed(Cycle now, const InstState& is) override;
  void on_committed(Cycle now, const InstState& is) override;
  void on_squashed(Cycle now, SeqNum first, SeqNum last) override;

  [[nodiscard]] u64 instructions_logged() const { return logged_; }

 private:
  [[nodiscard]] bool tracked(SeqNum seq) const;
  void sync_cycle(Cycle now);

  std::ostream* out_;
  u64 max_instructions_;
  u64 logged_ = 0;
  Cycle emitted_cycle_ = 0;
  bool header_written_ = false;
  u64 retire_id_ = 0;
};

/// Streams per-instruction pipeline events as Chrome-trace-event spans
/// (open the file in https://ui.perfetto.dev or chrome://tracing).  Each
/// tracked instruction gets one viewer row (tid = seq) with spans for its
/// frontend (fetch->dispatch), queue (dispatch->issue), execute
/// (issue->complete) and retire-wait (complete->commit) phases; simulated
/// cycles map 1:1 onto trace microseconds.  Squashed instructions emit an
/// instant "squash" marker and their record resets, so a refetch that
/// re-assigns the SeqNum restarts the row cleanly.
class TraceObserver final : public SchedHooks {
 public:
  /// `writer` must outlive the observer.  `max_instructions` caps how many
  /// sequence numbers get rows (the stream itself is unbounded).
  explicit TraceObserver(obs::ChromeTraceWriter* writer, u64 max_instructions = 10'000);

  void on_fetched(Cycle now, SeqNum seq, const isa::DynInst& di) override;
  void on_dispatched(Cycle now, const InstState& is) override;
  void on_issued(Cycle now, const InstState& is, Cycle exec_lat, Cycle lat_delta) override;
  void on_completed(Cycle now, const InstState& is) override;
  void on_committed(Cycle now, const InstState& is) override;
  void on_squashed(Cycle now, SeqNum first, SeqNum last) override;

  [[nodiscard]] u64 instructions_traced() const { return traced_; }

 private:
  struct Rec {
    Cycle fetch = 0;
    Cycle dispatch = 0;
    Cycle issue = 0;
    Cycle complete = 0;
    Pc pc = 0;
    isa::OpClass op = isa::OpClass::kIntAlu;
    u8 phase = 0;  ///< 0 idle, 1 fetched, 2 dispatched, 3 issued, 4 completed
    bool pred_fault = false;
  };

  [[nodiscard]] bool tracked(SeqNum seq) const { return seq < max_instructions_; }
  Rec* rec(SeqNum seq);

  obs::ChromeTraceWriter* writer_;
  u64 max_instructions_;
  u64 traced_ = 0;
  std::vector<Rec> recs_;
};

}  // namespace vasim::cpu

#endif  // VASIM_CPU_TRACE_SINKS_HPP
