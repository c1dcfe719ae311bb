#include "src/cpu/trace_sinks.hpp"

#include <string>

namespace vasim::cpu {

// ---- KanataTraceWriter -----------------------------------------------------

KanataTraceWriter::KanataTraceWriter(std::ostream* out, u64 max_instructions)
    : out_(out), max_instructions_(max_instructions) {}

bool KanataTraceWriter::tracked(SeqNum seq) const { return seq < max_instructions_; }

void KanataTraceWriter::sync_cycle(Cycle now) {
  if (!header_written_) {
    *out_ << "Kanata\t0004\n";
    *out_ << "C=\t" << now << "\n";
    emitted_cycle_ = now;
    header_written_ = true;
    return;
  }
  if (now > emitted_cycle_) {
    *out_ << "C\t" << (now - emitted_cycle_) << "\n";
    emitted_cycle_ = now;
  }
}

void KanataTraceWriter::on_fetched(Cycle now, SeqNum seq, const isa::DynInst& di) {
  if (!tracked(seq)) return;
  sync_cycle(now);
  ++logged_;
  *out_ << "I\t" << seq << "\t" << seq << "\t0\n";
  *out_ << "L\t" << seq << "\t0\t" << std::hex << di.pc << std::dec << ": "
        << isa::to_string(di.op) << "\n";
  *out_ << "S\t" << seq << "\t0\tF\n";
}

void KanataTraceWriter::on_dispatched(Cycle now, const InstState& is) {
  const SeqNum seq = is.di.seq;
  if (!tracked(seq)) return;
  sync_cycle(now);
  *out_ << "S\t" << seq << "\t0\tDs\n";
}

void KanataTraceWriter::on_issued(Cycle now, const InstState& is, Cycle, Cycle) {
  const SeqNum seq = is.di.seq;
  if (!tracked(seq)) return;
  sync_cycle(now);
  *out_ << "S\t" << seq << "\t0\tIs\n";
  if (is.pred_fault) *out_ << "L\t" << seq << "\t1\t[predicted faulty]\n";
}

void KanataTraceWriter::on_completed(Cycle now, const InstState& is) {
  const SeqNum seq = is.di.seq;
  if (!tracked(seq)) return;
  sync_cycle(now);
  *out_ << "S\t" << seq << "\t0\tCm\n";
}

void KanataTraceWriter::on_committed(Cycle now, const InstState& is) {
  const SeqNum seq = is.di.seq;
  if (!tracked(seq)) return;
  sync_cycle(now);
  *out_ << "R\t" << seq << "\t" << retire_id_++ << "\t0\n";
}

void KanataTraceWriter::on_squashed(Cycle now, SeqNum first, SeqNum last) {
  sync_cycle(now);
  for (SeqNum s = first; s <= last && tracked(s); ++s) {
    *out_ << "R\t" << s << "\t0\t1\n";  // type 1 = flushed
  }
}

// ---- TraceObserver ---------------------------------------------------------

TraceObserver::TraceObserver(obs::ChromeTraceWriter* writer, u64 max_instructions)
    : writer_(writer), max_instructions_(max_instructions) {
  writer_->process_name(1, "pipeline (1 cycle = 1us)");
}

TraceObserver::Rec* TraceObserver::rec(SeqNum seq) {
  if (!tracked(seq)) return nullptr;
  if (recs_.size() <= seq) recs_.resize(static_cast<std::size_t>(seq) + 1);
  return &recs_[static_cast<std::size_t>(seq)];
}

void TraceObserver::on_fetched(Cycle now, SeqNum seq, const isa::DynInst& di) {
  Rec* r = rec(seq);
  if (r == nullptr) return;
  *r = Rec{};  // a refetch re-assigns the seq: restart the row
  r->fetch = now;
  r->pc = di.pc;
  r->op = di.op;
  r->phase = 1;
}

void TraceObserver::on_dispatched(Cycle now, const InstState& is) {
  Rec* r = rec(is.di.seq);
  if (r == nullptr || r->phase != 1) return;
  r->dispatch = now;
  r->phase = 2;
}

void TraceObserver::on_issued(Cycle now, const InstState& is, Cycle, Cycle) {
  Rec* r = rec(is.di.seq);
  if (r == nullptr || r->phase != 2) return;
  r->issue = now;
  r->pred_fault = is.pred_fault;
  r->phase = 3;
}

void TraceObserver::on_completed(Cycle now, const InstState& is) {
  Rec* r = rec(is.di.seq);
  if (r == nullptr || r->phase != 3) return;
  r->complete = now;
  r->phase = 4;
}

void TraceObserver::on_committed(Cycle now, const InstState& is) {
  const SeqNum seq = is.di.seq;
  Rec* r = rec(seq);
  if (r == nullptr || r->phase != 4) return;
  const auto us = [](Cycle c) { return static_cast<double>(c); };
  const auto span = [&](std::string_view name, Cycle from, Cycle to) {
    // Zero-cycle phases still get a sliver so the row renders.
    const double dur = to > from ? us(to - from) : 0.1;
    writer_->complete_event(name, "instruction", 1, seq, us(from), dur);
  };
  span("frontend", r->fetch, r->dispatch);
  span("queue", r->dispatch, r->issue);
  span(r->pred_fault ? "execute [pred-faulty]" : "execute", r->issue, r->complete);
  span("retire-wait", r->complete, now);
  writer_->instant_event("commit", "instruction", 1, seq, us(now),
                         {{"pc", std::to_string(r->pc)},
                          {"op", obs::json_quote(isa::to_string(r->op))}});
  r->phase = 0;
  ++traced_;
}

void TraceObserver::on_squashed(Cycle now, SeqNum first, SeqNum last) {
  for (SeqNum s = first; s <= last && tracked(s); ++s) {
    if (recs_.size() <= s || recs_[static_cast<std::size_t>(s)].phase == 0) continue;
    writer_->instant_event("squash", "instruction", 1, s, static_cast<double>(now));
    recs_[static_cast<std::size_t>(s)].phase = 0;
  }
}

}  // namespace vasim::cpu
