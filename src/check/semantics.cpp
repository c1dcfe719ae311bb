#include "src/check/semantics.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "src/cpu/pipeline.hpp"

namespace vasim::check {
namespace {

u32 pow2_at_least(u32 v) {
  u32 p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

SemanticsChecker::SemanticsChecker(const cpu::CoreConfig& cfg, const cpu::SchemeConfig& scheme)
    : cfg_(cfg), scheme_(scheme) {
  const u32 cap = pow2_at_least(static_cast<u32>(cfg_.rob_entries));
  recs_.resize(cap);
  rec_mask_ = cap - 1;
  phys_ready_.assign(static_cast<std::size_t>(cfg_.phys_regs), 1);
  // Shadow FUSR: the same kind-grouped unit layout FuPool builds (simple,
  // complex, branch, load, store), all initially free.
  fu_free_.assign(static_cast<std::size_t>(cfg_.simple_alus + cfg_.complex_alus +
                                           cfg_.branch_units + cfg_.load_ports +
                                           cfg_.store_ports),
                  0);
}

void SemanticsChecker::attach(cpu::Pipeline& pipe) { pipe.add_check_hooks(this); }

SemanticsChecker::Rec* SemanticsChecker::rec_of(SeqNum seq) {
  Rec& r = recs_[static_cast<u32>(seq) & rec_mask_];
  return (r.valid && r.seq == seq) ? &r : nullptr;
}

const SemanticsChecker::Rec* SemanticsChecker::oldest_rec() const {
  const Rec& r = recs_[static_cast<u32>(next_commit_seq_) & rec_mask_];
  return (r.valid && r.seq == next_commit_seq_) ? &r : nullptr;
}

void SemanticsChecker::fail(const char* invariant, Cycle now, std::string detail) {
  ++total_violations_;
  bool found = false;
  for (InvariantCount& c : by_invariant_) {
    if (c.invariant == invariant) {
      ++c.violations;
      found = true;
      break;
    }
  }
  if (!found) by_invariant_.push_back({invariant, 1});
  if (violations_.size() < kMaxRecorded) {
    violations_.push_back({invariant, std::move(detail), now});
  }
}

void SemanticsChecker::check(bool cond, const char* invariant, Cycle now, const char* what,
                             SeqNum seq) {
  ++checks_;
  if (cond) return;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s (seq=%" PRIu64 ", cycle=%" PRIu64 ", stored=%" PRIu64 ")",
                what, static_cast<u64>(seq), static_cast<u64>(now),
                static_cast<u64>(stored(now)));
  fail(invariant, now, buf);
}

Cycle SemanticsChecker::ep_offset(timing::OooStage stage, Cycle exec_lat) const {
  switch (stage) {
    case timing::OooStage::kIssueSelect: return 0;
    case timing::OooStage::kRegRead: return 1;
    case timing::OooStage::kExecute: return 2;
    case timing::OooStage::kMemory: return 3;
    case timing::OooStage::kWriteback: return exec_lat + 1;
  }
  return 0;
}

int SemanticsChecker::shadow_wake(int dst_phys) {
  int deps = 0;
  for (Rec& r : recs_) {
    if (!r.valid || r.pending == 0) continue;
    const bool m1 = r.wait1 && r.src1 == dst_phys;
    const bool m2 = r.wait2 && r.src2 == dst_phys;
    if (!m1 && !m2) continue;
    ++deps;
    if (m1) r.wait1 = false;
    if (m2) r.wait2 = false;
    r.pending = static_cast<u8>(r.pending - (m1 ? 1 : 0) - (m2 ? 1 : 0));
  }
  return deps;
}

bool SemanticsChecker::shadow_load_may_issue(const Rec& load) const {
  // Youngest matching older store decides: issued forwards, un-issued
  // blocks, no match hits the cache (mirror of IssueWindow::load_may_issue).
  const Rec* best = nullptr;
  for (const Rec& r : recs_) {
    if (!r.valid || r.op != isa::OpClass::kStore) continue;
    if (r.seq >= load.seq || r.line_addr != load.line_addr) continue;
    if (best == nullptr || r.seq > best->seq) best = &r;
  }
  return best == nullptr || best->issued;
}

// ---- SchedHooks -----------------------------------------------------------

void SemanticsChecker::on_cycle_start(Cycle now, int slots_frozen, bool mem_blocked) {
  ++cycles_observed_;
  last_cycle_start_ = now;
  saw_cycle_start_ = true;

  // Freeze state rotates exactly once per scheduling step (stall cycles
  // skip the rotation along with everything else).
  check(slots_frozen == expected_frozen_next_, "slot-freeze", now,
        "reported frozen slots != writeback-stage predicted faults of the previous cycle",
        static_cast<SeqNum>(slots_frozen));
  check(mem_blocked == expected_mem_blocked_next_, "lsq-spacing", now,
        "reported CAM block != memory-stage predicted fault issued previous cycle", 0);
  expected_frozen_next_ = 0;
  expected_mem_blocked_next_ = false;
  frozen_reported_ = slots_frozen;
  mem_blocked_reported_ = mem_blocked;
  issues_this_cycle_ = 0;
  commits_this_cycle_ = 0;
  visit_seen_ = false;
  cur_pass_ = 1;
}

void SemanticsChecker::on_global_stall(Cycle now, bool ep_padding) {
  ++stall_cycles_;
  if (ep_padding) {
    check(ep_stalls_owed_ > 0, "ep-padding", now,
          "EP-attributed stall cycle with no pending EP stall event", 0);
    if (ep_stalls_owed_ > 0) --ep_stalls_owed_;
  }
  ++shift_;
  for (Cycle& f : fu_free_) ++f;  // reservations ride the stall (FUSR shift)
}

void SemanticsChecker::on_dispatched(Cycle now, const cpu::InstState& is) {
  const SeqNum seq = is.di.seq;
  check(!any_dispatched_ || seq == next_dispatch_seq_, "dispatch-order", now,
        "dispatch consumed a non-contiguous seq", seq);
  any_dispatched_ = true;
  next_dispatch_seq_ = seq + 1;
  if (seq > max_dispatched_seq_) max_dispatched_seq_ = seq;

  Rec& r = recs_[static_cast<u32>(seq) & rec_mask_];
  check(!r.valid, "commit-order", now,
        "window slot recycled while its instruction was still live (lost seq)", seq);

  r = Rec{};
  r.seq = seq;
  r.valid = true;
  r.age = is.age;
  r.op = is.di.op;
  r.line_addr = is.di.mem_addr & ~7ULL;
  r.pc = is.di.pc;
  r.dst = is.phys_dst;
  r.src1 = is.phys_src1;
  r.src2 = is.phys_src2;
  r.dispatch_cycle = now;
  r.pred_fault = is.pred_fault;
  r.pred_critical = is.pred_critical;
  r.pred_stage = is.pred_stage;
  r.safe_mode = is.safe_mode;
  r.wrong_path = is.wrong_path;

  check(r.src1 == kNoReg || (r.src1 >= 0 && r.src1 < cfg_.phys_regs), "dispatch-order", now,
        "renamed src1 outside the physical register file", seq);
  check(r.src2 == kNoReg || (r.src2 >= 0 && r.src2 < cfg_.phys_regs), "dispatch-order", now,
        "renamed src2 outside the physical register file", seq);
  check(r.dst == kNoReg || (r.dst >= 0 && r.dst < cfg_.phys_regs), "dispatch-order", now,
        "renamed dst outside the physical register file", seq);

  r.wait1 = r.src1 != kNoReg && phys_ready_[static_cast<std::size_t>(r.src1)] == 0;
  r.wait2 = r.src2 != kNoReg && phys_ready_[static_cast<std::size_t>(r.src2)] == 0;
  r.pending = static_cast<u8>((r.wait1 ? 1 : 0) + (r.wait2 ? 1 : 0));
  if (r.dst != kNoReg) phys_ready_[static_cast<std::size_t>(r.dst)] = 0;
}

void SemanticsChecker::on_select_pass(Cycle now, int pass) {
  (void)now;
  cur_pass_ = pass;
  visit_seen_ = false;
}

void SemanticsChecker::on_select_visit(Cycle now, const cpu::InstState& is,
                                       cpu::SelectOutcome outcome) {
  const SeqNum seq = is.di.seq;
  Rec* r = rec_of(seq);
  check(r != nullptr, "select-candidate", now, "select visited an unknown instruction", seq);
  if (r == nullptr) return;

  // Oldest-first scan order (ABS): seq order within the pass, which must
  // agree with the 6-bit hardware timestamp's wrapped distance whenever the
  // window span makes the timestamp unambiguous.
  if (visit_seen_) {
    check(seq > last_visit_seq_, "select-order", now,
          "selection visited a younger instruction before an older ready one", seq);
  }
  // The 6-bit distance is exact only while the *age* span from the window
  // head stays under 64.  Ages keep counting across squash-refetch (the
  // refetched stream gets fresh, larger ages), so the guard must be in age
  // space, not seq space.  Ages rise with seq among live instructions, so
  // once one visit overflows the representable span every later visit in
  // the pass does too -- the checked visits always form a prefix.
  const Rec* head = oldest_rec();
  if (head != nullptr && r->age - head->age < 64) {
    const u8 dist = static_cast<u8>((r->age - head->age) & 63);
    if (visit_seen_) {
      check(dist > last_visit_dist_ || seq <= last_visit_seq_, "select-order", now,
            "ABS 6-bit timestamp order disagrees with age order", seq);
    }
    last_visit_dist_ = dist;
  }
  visit_seen_ = true;
  last_visit_seq_ = seq;

  // Policy class of the pass (FFS: predicted-faulty first; CDS:
  // predicted-faulty-and-critical first).
  if (scheme_.policy == cpu::SelectPolicy::kFaultyFirst) {
    check((cur_pass_ == 0) == r->pred_fault, "select-candidate", now,
          "FFS pass visited the wrong prediction class", seq);
  } else if (scheme_.policy == cpu::SelectPolicy::kCriticalityDriven) {
    check((cur_pass_ == 0) == (r->pred_fault && r->pred_critical), "select-candidate", now,
          "CDS pass visited the wrong criticality class", seq);
  }

  if (outcome == cpu::SelectOutcome::kIssued) return;  // validated in on_issued

  check(!r->issued, "select-candidate", now, "select revisited an issued instruction", seq);
  check(!r->completed, "select-candidate", now, "select visited a completed instruction", seq);
  check(r->pending == 0, "select-candidate", now,
        "select visited an instruction with outstanding operands", seq);
  check(r->dispatch_cycle < now, "select-candidate", now,
        "instruction selected in its own dispatch cycle", seq);
  check(!(mem_blocked_reported_ && isa::is_mem(r->op)), "lsq-spacing", now,
        "memory op considered during the CAM-spacing block cycle", seq);
  if (outcome == cpu::SelectOutcome::kLoadBlocked) {
    check(r->op == isa::OpClass::kLoad, "stl-order", now, "non-load reported load-blocked", seq);
    check(!shadow_load_may_issue(*r), "stl-order", now,
          "load reported blocked with no older un-issued matching store", seq);
  }
}

void SemanticsChecker::on_fu_allocated(Cycle now, const cpu::InstState& is, int unit,
                                       Cycle next_free) {
  const SeqNum seq = is.di.seq;
  check(unit >= 0 && static_cast<std::size_t>(unit) < fu_free_.size(), "fusr-occupancy", now,
        "allocated unit id outside the pool", seq);
  if (unit < 0 || static_cast<std::size_t>(unit) >= fu_free_.size()) return;

  // Kind-grouped layout: the same contiguous ranges FuPool constructs.
  u32 begin = 0, end = 0;
  u32 b = 0;
  const auto range = [&](int count) {
    begin = b;
    end = b + static_cast<u32>(count);
    b = end;
  };
  range(cfg_.simple_alus);
  u32 alu_b = begin, alu_e = end;
  range(cfg_.complex_alus);
  u32 cx_b = begin, cx_e = end;
  range(cfg_.branch_units);
  u32 br_b = begin, br_e = end;
  range(cfg_.load_ports);
  u32 ld_b = begin, ld_e = end;
  range(cfg_.store_ports);
  u32 st_b = begin, st_e = end;
  u32 want_b = alu_b, want_e = alu_e;
  switch (is.di.op) {
    case isa::OpClass::kIntMul:
    case isa::OpClass::kIntDiv: want_b = cx_b; want_e = cx_e; break;
    case isa::OpClass::kBranch: want_b = br_b; want_e = br_e; break;
    case isa::OpClass::kLoad: want_b = ld_b; want_e = ld_e; break;
    case isa::OpClass::kStore: want_b = st_b; want_e = st_e; break;
    default: break;
  }
  const u32 u = static_cast<u32>(unit);
  check(u >= want_b && u < want_e, "fusr-occupancy", now,
        "instruction allocated to a unit of the wrong kind", seq);
  // The FUSR bit: a busy (or frozen) unit must never accept.
  check(fu_free_[u] <= now, "fusr-occupancy", now,
        "instruction entered a busy/frozen functional unit", seq);
  fu_free_[u] = next_free;

  fu_alloc_pending_ = true;
  fu_alloc_seq_ = seq;
  fu_alloc_unit_ = unit;
  fu_alloc_next_free_ = next_free;
}

void SemanticsChecker::on_issued(Cycle now, const cpu::InstState& is, Cycle exec_lat,
                                 Cycle lat_delta) {
  const SeqNum seq = is.di.seq;
  Rec* r = rec_of(seq);
  check(r != nullptr, "select-candidate", now, "issued an unknown instruction", seq);
  if (r == nullptr) return;

  check(!r->issued, "select-candidate", now, "instruction issued twice", seq);
  check(r->pending == 0, "select-candidate", now,
        "instruction issued with outstanding source operands", seq);
  check(r->dispatch_cycle < now, "select-candidate", now,
        "instruction issued in its own dispatch cycle", seq);
  check(!(mem_blocked_reported_ && isa::is_mem(r->op)), "lsq-spacing", now,
        "memory op issued during the CAM-spacing block cycle", seq);
  if (r->op == isa::OpClass::kLoad) {
    check(shadow_load_may_issue(*r), "stl-order", now,
          "load issued past an older un-issued matching store", seq);
  }

  ++issues_this_cycle_;
  check(issues_this_cycle_ <= cfg_.issue_width - frozen_reported_, "slot-freeze", now,
        "issued into a frozen issue slot (width exceeded)", seq);

  // The +1 rules (the heart of VTE): exactly one pad cycle per predicted
  // fault, exactly one per safe-mode re-execution, nothing else.
  const Cycle want_delta =
      ((scheme_.vte && r->pred_fault) ? 1 : 0) + (r->safe_mode ? 1 : 0);
  check(lat_delta == want_delta, "delayed-broadcast", now,
        "VTE pad cycles do not match the predicted-fault/safe-mode state", seq);
  switch (r->op) {
    case isa::OpClass::kIntMul:
      check(exec_lat == cfg_.mul_latency, "delayed-broadcast", now,
            "multiply issued with the wrong latency", seq);
      break;
    case isa::OpClass::kIntDiv:
      check(exec_lat == cfg_.div_latency, "delayed-broadcast", now,
            "divide issued with the wrong latency", seq);
      break;
    case isa::OpClass::kLoad:
      check(exec_lat >= 2, "delayed-broadcast", now, "load issued faster than address+data", seq);
      break;
    default:
      check(exec_lat == 1, "delayed-broadcast", now,
            "single-cycle op issued with a multi-cycle latency", seq);
      break;
  }

  // FUSR occupancy: the reservation must cover exactly the issue slot (one
  // cycle for pipelined units), the full latency for the unpipelined
  // divider, plus the single VTE freeze cycle behind a non-writeback
  // predicted fault (Section 3.3.3).
  check(fu_alloc_pending_ && fu_alloc_seq_ == seq, "fusr-occupancy", now,
        "issue without a matching FU reservation", seq);
  if (fu_alloc_pending_ && fu_alloc_seq_ == seq) {
    const bool fu_extra = scheme_.vte && r->pred_fault &&
                          r->pred_stage != timing::OooStage::kWriteback;
    const Cycle occupy = (r->op == isa::OpClass::kIntDiv ? exec_lat + lat_delta : 1) +
                         (fu_extra ? 1 : 0);
    check(fu_alloc_next_free_ == now + occupy, "fusr-occupancy", now,
          "FU reservation length disagrees with the occupancy rule", seq);
  }
  fu_alloc_pending_ = false;

  // Writeback-stage predicted fault freezes one global issue slot next
  // scheduling cycle; a memory-stage one blocks the LSQ CAM next cycle.
  if (scheme_.vte && r->pred_fault) {
    if (r->pred_stage == timing::OooStage::kWriteback) {
      ++expected_frozen_next_;
    } else if (r->pred_stage == timing::OooStage::kMemory) {
      expected_mem_blocked_next_ = true;
    }
  }

  r->issued = true;
  r->actual_fault = is.actual_fault;
  r->actual_stage = is.actual_stage;
  r->covered = is.actual_fault && r->pred_fault && r->pred_stage == is.actual_stage &&
               (scheme_.vte || scheme_.error_padding);
  check(is.fault_handled == r->covered, "razor-replay", now,
        "fault_handled disagrees with the prediction-coverage rule", seq);
  r->replay_expected = is.actual_fault && !r->covered;
  check(is.replay_scheduled == r->replay_expected, "razor-replay", now,
        "replay scheduling disagrees with the coverage rule", seq);

  r->bcast_due = stored(now) + exec_lat + lat_delta;
  r->bcast_pending = r->dst != kNoReg;
  r->complete_due = r->bcast_due + 1;
  r->complete_pending = true;
  if (scheme_.error_padding && r->pred_fault) {
    // The wheel pops once per scheduling step, so an offset-0 (issue-stage)
    // pad lands on the next pop like an offset-1 one.
    const Cycle off = ep_offset(r->pred_stage, exec_lat);
    r->ep_due = stored(now) + (off > 1 ? off : 1);
    r->ep_pending = true;
  }
}

void SemanticsChecker::on_lsq_search(Cycle now, const cpu::InstState& is) {
  const SeqNum seq = is.di.seq;
  check(isa::is_mem(is.di.op), "lsq-spacing", now, "CAM search by a non-memory op", seq);
  // Section 3.3.4: no load/store CAM search in the cycle right behind a
  // predicted-faulty memory-stage instruction.
  check(!mem_blocked_reported_, "lsq-spacing", now,
        "LSQ CAM search during the spacing cycle behind a predicted memory fault", seq);
}

void SemanticsChecker::on_tag_broadcast(Cycle now, const cpu::InstState& is, int deps) {
  const SeqNum seq = is.di.seq;
  Rec* r = rec_of(seq);
  check(r != nullptr, "delayed-broadcast", now, "broadcast from an unknown instruction", seq);
  if (r == nullptr) return;
  check(r->issued, "delayed-broadcast", now, "broadcast from an un-issued instruction", seq);
  check(r->dst != kNoReg, "delayed-broadcast", now, "broadcast without a destination", seq);
  check(r->bcast_pending, "delayed-broadcast", now,
        "duplicate or unexpected tag broadcast", seq);
  check(stored(now) == r->bcast_due, "delayed-broadcast", now,
        "tag broadcast not at issue + exec_lat + pad (delayed-broadcast rule)", seq);
  r->bcast_pending = false;

  const int want = shadow_wake(r->dst);
  check(deps == want, "cdl-count", now,
        "broadcast dependent count disagrees with the shadow waiter scan", seq);
  if (r->dst != kNoReg) phys_ready_[static_cast<std::size_t>(r->dst)] = 1;
}

void SemanticsChecker::on_mark_critical(Cycle now, const cpu::InstState& is, int deps,
                                        bool critical) {
  const SeqNum seq = is.di.seq;
  check(scheme_.use_predictor, "cds-threshold", now,
        "criticality feedback without a predictor", seq);
  // CDL promotion exactly at CT tag matches (Section 3.5.2; CT=8).
  check(critical == (deps >= scheme_.criticality_threshold), "cds-threshold", now,
        "criticality bit disagrees with the CT threshold", seq);
}

void SemanticsChecker::on_completed(Cycle now, const cpu::InstState& is) {
  const SeqNum seq = is.di.seq;
  Rec* r = rec_of(seq);
  check(r != nullptr, "completion-time", now, "completion of an unknown instruction", seq);
  if (r == nullptr) return;
  check(r->issued, "completion-time", now, "completion of an un-issued instruction", seq);
  check(!r->completed, "completion-time", now, "instruction completed twice", seq);
  check(r->complete_pending && stored(now) == r->complete_due, "completion-time", now,
        "completion not exactly one cycle after the broadcast", seq);
  check(!r->bcast_pending, "completion-time", now,
        "completion before the tag broadcast", seq);
  r->completed = true;
  r->complete_pending = false;
}

void SemanticsChecker::on_ep_stall(Cycle now, const cpu::InstState& is) {
  const SeqNum seq = is.di.seq;
  Rec* r = rec_of(seq);
  check(scheme_.error_padding, "ep-padding", now, "EP stall outside the EP scheme", seq);
  check(r != nullptr, "ep-padding", now, "EP stall for an unknown instruction", seq);
  if (r == nullptr) return;
  check(r->pred_fault, "ep-padding", now, "EP stall for an unpredicted instruction", seq);
  check(r->ep_pending && stored(now) == r->ep_due, "ep-padding", now,
        "EP stall not at the predicted stage's transit cycle", seq);
  r->ep_pending = false;
  ++ep_stalls_owed_;
}

void SemanticsChecker::on_replay(Cycle now, const cpu::InstState& is) {
  const SeqNum seq = is.di.seq;
  Rec* r = rec_of(seq);
  check(r != nullptr, "razor-replay", now, "replay of an unknown instruction", seq);
  if (r == nullptr) return;
  check(r->actual_fault, "razor-replay", now, "replay without an actual fault", seq);
  check(!r->covered, "razor-replay", now,
        "VTE/EP-covered predicted fault must never replay", seq);
  check(r->replay_expected, "razor-replay", now, "unexpected replay", seq);
  check(!r->replay_seen, "razor-replay", now, "instruction replayed twice", seq);
  check(stored(now) == r->complete_due, "razor-replay", now,
        "replay not at the fault's detection (completion) cycle", seq);
  r->replay_seen = true;
}

void SemanticsChecker::on_committed(Cycle now, const cpu::InstState& is) {
  const SeqNum seq = is.di.seq;
  check(seq == next_commit_seq_, "commit-order", now,
        "commit out of program order (lost or duplicated seq)", seq);
  ++commits_this_cycle_;
  check(commits_this_cycle_ <= cfg_.commit_width, "commit-order", now,
        "more commits in one cycle than the commit width", seq);

  Rec* r = rec_of(seq);
  check(r != nullptr, "commit-order", now, "commit of an unknown instruction", seq);
  if (r != nullptr) {
    check(r->completed, "commit-order", now, "commit of an incomplete instruction", seq);
    check(!r->wrong_path, "commit-order", now, "wrong-path instruction committed", seq);
    if (r->actual_fault && !r->covered) {
      check(r->replay_seen, "razor-replay", now,
            "unpredicted actual fault committed without a Razor replay", seq);
    }
    r->valid = false;
  }
  next_commit_seq_ = seq + 1;
  ++commits_observed_;
}

void SemanticsChecker::on_squashed(Cycle now, SeqNum first, SeqNum last) {
  (void)now;
  // The squash range covers the window tail plus the frontend; clamp the
  // walk so a corrupt range cannot spin (everything it could invalidate
  // lives within the record ring anyway).
  const u64 span = last >= first ? last - first + 1 : 0;
  const u64 walk = span > recs_.size() + 1024 ? recs_.size() + 1024 : span;
  for (u64 i = 0; i < walk; ++i) {
    const SeqNum s = first + i;
    Rec& r = recs_[static_cast<u32>(s) & rec_mask_];
    if (r.valid && r.seq == s) r.valid = false;
  }
  next_dispatch_seq_ = first;
  if (any_dispatched_ && max_dispatched_seq_ >= first && first > 0) {
    max_dispatched_seq_ = first - 1;
  }
}

std::string SemanticsChecker::report() const {
  if (ok()) return {};
  std::ostringstream os;
  os << "SemanticsChecker: " << total_violations_ << " violation(s) across "
     << by_invariant_.size() << " invariant(s), " << checks_ << " checks, "
     << cycles_observed_ << " cycles, " << commits_observed_ << " commits\n";
  for (const InvariantCount& c : by_invariant_) {
    os << "  [" << c.invariant << "] x" << c.violations << "\n";
  }
  const std::size_t n = violations_.size();
  os << "first " << n << " violation(s):\n";
  for (const Violation& v : violations_) {
    os << "  cycle " << v.cycle << " [" << v.invariant << "] " << v.detail << "\n";
  }
  return os.str();
}

void SemanticsChecker::save_state(snap::Writer& w) const {
  if (!ok()) throw snap::SnapshotError("refusing to snapshot a checker with violations");
  w.put_u32(static_cast<u32>(recs_.size()));
  for (const Rec& rec : recs_) {
    w.put_u64(rec.seq);
    w.put_bool(rec.valid);
    w.put_u64(rec.age);
    w.put_u8(static_cast<u8>(rec.op));
    w.put_u64(rec.line_addr);
    w.put_u64(rec.pc);
    w.put_i32(rec.dst);
    w.put_i32(rec.src1);
    w.put_i32(rec.src2);
    w.put_bool(rec.wait1);
    w.put_bool(rec.wait2);
    w.put_u8(rec.pending);
    w.put_u64(rec.dispatch_cycle);
    w.put_bool(rec.issued);
    w.put_bool(rec.completed);
    w.put_bool(rec.pred_fault);
    w.put_bool(rec.pred_critical);
    w.put_u8(static_cast<u8>(rec.pred_stage));
    w.put_bool(rec.actual_fault);
    w.put_u8(static_cast<u8>(rec.actual_stage));
    w.put_bool(rec.safe_mode);
    w.put_bool(rec.wrong_path);
    w.put_bool(rec.covered);
    w.put_bool(rec.replay_expected);
    w.put_bool(rec.replay_seen);
    w.put_u64(rec.bcast_due);
    w.put_bool(rec.bcast_pending);
    w.put_u64(rec.complete_due);
    w.put_bool(rec.complete_pending);
    w.put_u64(rec.ep_due);
    w.put_bool(rec.ep_pending);
  }
  w.put_u32(static_cast<u32>(phys_ready_.size()));
  for (const u8 v : phys_ready_) w.put_u8(v);
  w.put_u64(shift_);
  w.put_u64(last_cycle_start_);
  w.put_bool(saw_cycle_start_);
  w.put_u64(cycles_observed_);
  w.put_u64(stall_cycles_);
  w.put_i32(frozen_reported_);
  w.put_bool(mem_blocked_reported_);
  w.put_i32(expected_frozen_next_);
  w.put_bool(expected_mem_blocked_next_);
  w.put_i32(issues_this_cycle_);
  w.put_i32(commits_this_cycle_);
  w.put_i32(cur_pass_);
  w.put_bool(visit_seen_);
  w.put_u64(last_visit_seq_);
  w.put_u8(last_visit_dist_);
  w.put_u32(static_cast<u32>(fu_free_.size()));
  for (const Cycle v : fu_free_) w.put_u64(v);
  w.put_bool(fu_alloc_pending_);
  w.put_u64(fu_alloc_seq_);
  w.put_i32(fu_alloc_unit_);
  w.put_u64(fu_alloc_next_free_);
  w.put_u64(next_commit_seq_);
  w.put_u64(next_dispatch_seq_);
  w.put_u64(max_dispatched_seq_);
  w.put_bool(any_dispatched_);
  w.put_u64(ep_stalls_owed_);
  w.put_u64(commits_observed_);
  w.put_u64(checks_);
}

void SemanticsChecker::restore_state(snap::Reader& r) {
  if (r.get_u32() != recs_.size()) throw snap::SnapshotError("checker record table size mismatch");
  for (Rec& rec : recs_) {
    rec.seq = r.get_u64();
    rec.valid = r.get_bool();
    rec.age = r.get_u64();
    rec.op = static_cast<isa::OpClass>(r.get_u8());
    rec.line_addr = r.get_u64();
    rec.pc = r.get_u64();
    rec.dst = r.get_i32();
    rec.src1 = r.get_i32();
    rec.src2 = r.get_i32();
    rec.wait1 = r.get_bool();
    rec.wait2 = r.get_bool();
    rec.pending = r.get_u8();
    rec.dispatch_cycle = r.get_u64();
    rec.issued = r.get_bool();
    rec.completed = r.get_bool();
    rec.pred_fault = r.get_bool();
    rec.pred_critical = r.get_bool();
    rec.pred_stage = static_cast<timing::OooStage>(r.get_u8());
    rec.actual_fault = r.get_bool();
    rec.actual_stage = static_cast<timing::OooStage>(r.get_u8());
    rec.safe_mode = r.get_bool();
    rec.wrong_path = r.get_bool();
    rec.covered = r.get_bool();
    rec.replay_expected = r.get_bool();
    rec.replay_seen = r.get_bool();
    rec.bcast_due = r.get_u64();
    rec.bcast_pending = r.get_bool();
    rec.complete_due = r.get_u64();
    rec.complete_pending = r.get_bool();
    rec.ep_due = r.get_u64();
    rec.ep_pending = r.get_bool();
  }
  if (r.get_u32() != phys_ready_.size()) throw snap::SnapshotError("checker phys reg count mismatch");
  for (u8& v : phys_ready_) v = r.get_u8();
  shift_ = r.get_u64();
  last_cycle_start_ = r.get_u64();
  saw_cycle_start_ = r.get_bool();
  cycles_observed_ = r.get_u64();
  stall_cycles_ = r.get_u64();
  frozen_reported_ = r.get_i32();
  mem_blocked_reported_ = r.get_bool();
  expected_frozen_next_ = r.get_i32();
  expected_mem_blocked_next_ = r.get_bool();
  issues_this_cycle_ = r.get_i32();
  commits_this_cycle_ = r.get_i32();
  cur_pass_ = r.get_i32();
  visit_seen_ = r.get_bool();
  last_visit_seq_ = r.get_u64();
  last_visit_dist_ = r.get_u8();
  if (r.get_u32() != fu_free_.size()) throw snap::SnapshotError("checker fu table size mismatch");
  for (Cycle& v : fu_free_) v = r.get_u64();
  fu_alloc_pending_ = r.get_bool();
  fu_alloc_seq_ = r.get_u64();
  fu_alloc_unit_ = r.get_i32();
  fu_alloc_next_free_ = r.get_u64();
  next_commit_seq_ = r.get_u64();
  next_dispatch_seq_ = r.get_u64();
  max_dispatched_seq_ = r.get_u64();
  any_dispatched_ = r.get_bool();
  ep_stalls_owed_ = r.get_u64();
  commits_observed_ = r.get_u64();
  checks_ = r.get_u64();
}

}  // namespace vasim::check
