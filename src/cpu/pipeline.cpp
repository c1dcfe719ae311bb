#include "src/cpu/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/isa/program.hpp"

namespace vasim::cpu {
namespace {

constexpr u32 kFrontendCap = 64;

}  // namespace

Pipeline::Pipeline(const CoreConfig& cfg, const SchemeConfig& scheme,
                   isa::InstructionSource* source, const timing::FaultModel* fault_model,
                   FaultPredictor* predictor)
    : cfg_(cfg), scheme_(scheme), source_(source), fault_model_(fault_model),
      predictor_(predictor), memory_(cfg, &registry_), bpred_(cfg), fus_(cfg, &registry_) {
  validate_core_config(cfg_);
  rename_map_.resize(isa::kNumArchRegs);
  for (int a = 0; a < isa::kNumArchRegs; ++a) rename_map_[static_cast<std::size_t>(a)] = a;
  free_list_.reserve(static_cast<std::size_t>(cfg_.phys_regs));
  for (int p = cfg_.phys_regs - 1; p >= isa::kNumArchRegs; --p) free_list_.push_back(p);
  phys_ready_.assign(static_cast<std::size_t>(cfg_.phys_regs), 1);
  phys_producer_.assign(static_cast<std::size_t>(cfg_.phys_regs), 0);

  // ---- scheduler-kernel storage (one arena reservation, then zero heap
  // traffic for the rest of the pipeline's life) -----------------------------
  // Window slots are addressed seq & (cap-1); the ROB bound keeps the live
  // seq range contiguous and shorter than the capacity.
  const u32 win_cap = next_pow2_u32(static_cast<u32>(cfg_.rob_entries));
  // Refetch holds at most the squashed true path: ROB + frontend, with slack
  // for the refetch of a refetch before the queue drains.
  const u32 rf_cap = next_pow2_u32(static_cast<u32>(cfg_.rob_entries) + kFrontendCap + 8);
  // Wheel horizon: the farthest event is complete/replay at
  // exec_lat + lat_delta + 1 ahead; exec_lat tops out at the full miss path.
  Cycle max_lat = 1 + cfg_.l1d.latency + cfg_.l2.latency + cfg_.memory_latency;
  max_lat = std::max({max_lat, cfg_.mul_latency, cfg_.div_latency});
  const u32 wheel_buckets = next_pow2_u32(static_cast<u32>(max_lat) + 8);
  // At most broadcast+complete+EP+replay pending per in-flight instruction.
  const u32 event_pool = 4 * win_cap + 16;
  const u32 cand_words = IssueWindow::words_for(win_cap);
  const u32 num_phys = static_cast<u32>(cfg_.phys_regs);

  std::size_t bytes = IssueWindow::bytes_needed(win_cap, num_phys);
  bytes += Arena::need<FetchedInst>(kFrontendCap);
  bytes += Arena::need<RefetchInst>(rf_cap);
  bytes += EventWheel::bytes_needed(wheel_buckets, event_pool);
  bytes += Arena::need<Event>(event_pool);                   // due_ scratch
  bytes += Arena::need<u64>(cand_words);                     // cand_words_
  bytes += Arena::need<RefetchInst>(win_cap + kFrontendCap); // re_ scratch
  arena_.reserve(bytes);

  window_.init(arena_, win_cap, num_phys);
  frontend_.init(arena_.alloc<FetchedInst>(kFrontendCap), kFrontendCap);
  refetch_.init(arena_.alloc<RefetchInst>(rf_cap), rf_cap);
  wheel_.init(arena_, wheel_buckets, event_pool);
  due_ = arena_.alloc<Event>(event_pool);
  cand_words_ = arena_.alloc<u64>(cand_words);
  re_ = arena_.alloc<RefetchInst>(win_cap + kFrontendCap);

  // Register every hot-path counter once; the per-event cost from here on is
  // a pointer bump (the StatSet map is only touched again at snapshot time).
  c_broadcast_ = registry_.counter("ev.broadcast");
  c_wakeup_match_ = registry_.counter("ev.wakeup_match");
  c_ep_stalls_ = registry_.counter("ep.stalls");
  c_replays_ = registry_.counter("fault.replays");
  c_squash_ = registry_.counter("ev.squash");
  c_dcache_write_ = registry_.counter("ev.dcache_write");
  c_committed_faulty_ = registry_.counter("fault.committed_faulty");
  c_commit_ = registry_.counter("ev.commit");
  c_inorder_stall_ = registry_.counter("fault.inorder.stall");
  c_inorder_replay_ = registry_.counter("fault.inorder.replay");
  c_sel_no_ready_ = registry_.counter("sel.cycles_no_ready");
  c_sel_blocked_ = registry_.counter("sel.cycles_blocked");
  c_sel_issued_ = registry_.counter("sel.issued_total");
  c_sel_iq_occ_ = registry_.counter("sel.iq_occupancy_sum");
  c_sel_window_ = registry_.counter("sel.window_sum");
  c_sel_frontend_ = registry_.counter("sel.frontend_sum");
  c_select_ = registry_.counter("ev.select");
  c_regread_ = registry_.counter("ev.regread");
  c_lsq_search_ = registry_.counter("ev.lsq_search");
  c_stl_forward_ = registry_.counter("ev.stl_forward");
  c_dcache_read_ = registry_.counter("ev.dcache_read");
  c_fault_actual_ = registry_.counter("fault.actual");
  c_fault_handled_ = registry_.counter("fault.handled");
  c_fault_predicted_ = registry_.counter("fault.predicted");
  c_fault_false_pos_ = registry_.counter("fault.false_positive");
  c_fault_false_neg_ = registry_.counter("fault.false_negative");
  c_dispatch_ = registry_.counter("ev.dispatch");
  c_iq_write_ = registry_.counter("ev.iq_write");
  c_fetch_ = registry_.counter("ev.fetch");
  c_wrongpath_fetch_ = registry_.counter("ev.wrongpath_fetch");
  c_branch_mispredict_ = registry_.counter("branch.mispredict");
  c_stall_cycles_ = registry_.counter("ev.stall_cycles");
  for (int i = 0; i < timing::kNumOooStages; ++i) {
    c_fault_stage_[static_cast<std::size_t>(i)] = registry_.counter(
        std::string("fault.stage.") +
        std::string(timing::to_string(static_cast<timing::OooStage>(i))));
  }
  for (int i = 0; i < obs::kNumCpiCauses; ++i) {
    c_cpi_[static_cast<std::size_t>(i)] =
        registry_.counter(obs::cpi_counter_name(static_cast<obs::CpiCause>(i)));
  }
}

bool Pipeline::faults_enabled() const {
  // An attached adaptive clock can shorten the period below the safe point
  // even at the nominal supply, so the oracle stays live whenever one is on.
  return fault_model_ != nullptr && (fault_model_->enabled() || clock_ != nullptr);
}

namespace {
/// Operand-toggle proxy for the state-dependent delay model: a hash of the
/// register operands and effective address standing in for the toggled
/// input vector of the sensitized cone.
u64 operand_signature(const isa::DynInst& di) {
  u64 h = hash_combine(static_cast<u64>(di.src1 + 1), static_cast<u64>(di.src2 + 1));
  h = hash_combine(h, static_cast<u64>(di.dst + 1));
  return hash_combine(h, di.mem_addr);
}
}  // namespace

void Pipeline::schedule(Cycle cycle, EventKind kind, SeqNum seq) {
  // `cycle >= now_ >= event_shift_` always holds (the shift only grows by
  // one per stall cycle, and every stall cycle also advances now_), so the
  // stored key never underflows.
  wheel_.schedule(cycle - event_shift_, kind, seq);
}

Cycle Pipeline::stage_offset(timing::OooStage stage, Cycle exec_lat) const {
  switch (stage) {
    case timing::OooStage::kIssueSelect: return 0;
    case timing::OooStage::kRegRead: return 1;
    case timing::OooStage::kExecute: return 2;
    case timing::OooStage::kMemory: return 3;
    case timing::OooStage::kWriteback: return exec_lat + 1;
  }
  return 0;
}

void Pipeline::shift_all_times(Cycle delta) {
  event_shift_ += delta;  // all pending events move as one (stored keys fixed)
  for (u32 i = 0; i < frontend_.size(); ++i) frontend_.at(i).arrive += delta;
  fus_.shift_time(delta);
  fetch_stall_until_ += delta;
}

void Pipeline::train_predictor(const InstState& is, bool faulty) {
  if (predictor_ == nullptr || !scheme_.use_predictor) return;
  predictor_->train(is.di.pc, is.tep_history, faulty, is.actual_stage);
}

// ---- events ---------------------------------------------------------------

void Pipeline::broadcast(InstState& is) {
  c_broadcast_.inc();
  if (is.phys_dst == kNoReg) return;
  phys_ready_[static_cast<std::size_t>(is.phys_dst)] = 1;
  // CDL (Section 3.5.2): count waiting dependents that match this tag.  The
  // wakeup is a masked scan of the not-ready waiters; a ready waiter cannot
  // match because its sources all broadcast earlier.
  const int deps = window_.wake(is.phys_dst);
  if (deps > 0) c_wakeup_match_.inc(static_cast<u64>(deps));
  fire([&](SchedHooks& h) { h.on_tag_broadcast(now_, is, deps); });
  if (predictor_ != nullptr && scheme_.use_predictor) {
    const bool critical = deps >= scheme_.criticality_threshold;
    predictor_->mark_critical(is.di.pc, is.tep_history, critical);
    fire([&](SchedHooks& h) { h.on_mark_critical(now_, is, deps, critical); });
  }
}

void Pipeline::process_events() {
  // Drain the one bucket due this cycle (the stored key advances by exactly
  // one per scheduling step; stall cycles move the shift instead).
  {
    // Sub-phase of kExecute (the enclosing scope): how much of event
    // processing is the wheel pop itself.
    const obs::Profiler::Scope s(profiler_, obs::ProfPhase::kEventWheel);
    due_n_ = wheel_.pop_due(now_ - event_shift_, due_);
  }
  // Deterministic order: broadcasts, completes, EP stalls, replays; then age.
  // A bucket holds a handful of events, so an insertion sort beats the
  // introsort machinery on every cycle of the hot loop.
  const auto before = [](const Event& a, const Event& b) {
    if (a.kind != b.kind) return static_cast<int>(a.kind) < static_cast<int>(b.kind);
    return a.seq < b.seq;
  };
  for (u32 i = 1; i < due_n_; ++i) {
    const Event e = due_[i];
    u32 j = i;
    for (; j > 0 && before(e, due_[j - 1]); --j) due_[j] = due_[j - 1];
    due_[j] = e;
  }

  for (u32 i = 0; i < due_n_; ++i) {
    const Event& e = due_[i];
    switch (e.kind) {
      case EventKind::kBroadcast: {
        InstState* is = find(e.seq);
        if (is != nullptr) broadcast(*is);
        break;
      }
      case EventKind::kComplete: {
        InstState* is = find(e.seq);
        if (is == nullptr) break;
        is->completed = true;
        fire([&](SchedHooks& h) { h.on_completed(now_, *is); });
        if (fetch_blocked_on_ && *fetch_blocked_on_ == e.seq) {
          fetch_blocked_on_.reset();
          if (cfg_.model_wrong_path) squash_younger(e.seq, /*refetch_true_path=*/false);
        }
        // Detection-based training (Razor latches observe every transit).
        if (is->actual_fault && is->fault_handled) {
          train_predictor(*is, true);
        } else if (is->pred_fault && !is->actual_fault) {
          train_predictor(*is, false);  // decay stale predictions
        }
        break;
      }
      case EventKind::kEpStall: {
        InstState* is = find(e.seq);
        if (is != nullptr) {
          fire([&](SchedHooks& h) { h.on_ep_stall(now_, *is); });
          push_global_stall(1, obs::CpiCause::kEpStall);
          c_ep_stalls_.inc();
        }
        break;
      }
      case EventKind::kReplay:
        do_replay(e.seq);
        break;
    }
  }
}

void Pipeline::do_replay(SeqNum seq) {
  InstState* is = find(seq);
  if (is == nullptr || !is->replay_scheduled) return;
  fire([&](SchedHooks& h) { h.on_replay(now_, *is); });
  c_replays_.inc();
  train_predictor(*is, true);

  if (scheme_.recovery == RecoveryModel::kMicroStall) {
    // RazorII-style in-place replay: the stage recomputes while the pipeline
    // holds; the instruction's own events shift with the stall.
    push_global_stall(static_cast<int>(scheme_.micro_stall_cycles), obs::CpiCause::kReplay);
    is->replay_scheduled = false;
    is->safe_mode = true;
    return;
  }

  // Squash-and-refetch: flush [seq, tail] plus the front end, restore the
  // rename map youngest-first, and refetch with the faulty instance marked
  // safe (the recovery executes it with a guaranteed-sufficient period).
  const Pc faulty_pc = is->di.pc;
  squash_younger(seq - 1, /*refetch_true_path=*/true);
  if (!refetch_.empty() && refetch_.front().di.pc == faulty_pc) {
    refetch_.front().safe_mode = true;
  }
  fetch_stall_until_ = std::max(fetch_stall_until_, now_ + static_cast<Cycle>(cfg_.replay_recovery));
  // Until the refetched work can reach dispatch again, an empty ROB is the
  // squash's fault, not the frontend's.
  squash_recover_until_ = fetch_stall_until_ + static_cast<Cycle>(cfg_.frontend_depth);
}

void Pipeline::squash_younger(SeqNum last_kept, bool refetch_true_path) {
  // A replay of seq 0 passes last_kept = SeqNum(0) - 1 (wrapped around):
  // nothing survives the squash, not even the window head.  Without this
  // the wrapped value would read as "keep everything" below while next_seq_
  // still reset to 0, recycling seq numbers that are live in the window.
  const bool keep_none = last_kept + 1 == 0;

  // Collect true-path work for refetch (arena scratch); wrong-path work is
  // discarded.
  re_n_ = 0;
  u64 squashed = 0;
  SeqNum youngest = last_kept;
  for (u32 off = 0; off < window_.size(); ++off) {
    const SeqNum wseq = window_.head_seq() + off;
    if (!keep_none && wseq <= last_kept) continue;
    const InstState& w = window_.slot_state(window_.slot_of(wseq));
    ++squashed;
    youngest = wseq;
    if (refetch_true_path && !w.wrong_path) re_[re_n_++] = RefetchInst{w.di, false};
  }
  for (u32 i = 0; i < frontend_.size(); ++i) {
    const FetchedInst& fi = frontend_.at(i);
    ++squashed;
    youngest = fi.seq;
    if (refetch_true_path && !fi.wrong_path) re_[re_n_++] = RefetchInst{fi.di, false};
  }
  frontend_.clear();

  while (!window_.empty()) {
    InstState& w = window_.back();
    const SeqNum wseq = window_.head_seq() + window_.size() - 1;
    if (!keep_none && wseq <= last_kept) break;
    if (w.phys_dst != kNoReg) {
      rename_map_[static_cast<std::size_t>(w.di.dst)] = w.old_phys;
      free_list_.push_back(w.phys_dst);
    }
    if (w.in_iq) --iq_count_;
    if (w.di.op == isa::OpClass::kLoad) --lq_count_;
    if (w.di.op == isa::OpClass::kStore) --sq_count_;
    window_.pop_back();
  }
  c_squash_.inc(squashed);
  if (squashed > 0) {
    fire([&](SchedHooks& h) { h.on_squashed(now_, last_kept + 1, youngest); });
  }

  // Seq numbers above `last_kept` are recycled, so stale events for squashed
  // instructions must not fire on their successors.
  if (keep_none) {
    wheel_.clear_events();
  } else {
    wheel_.filter_squashed(last_kept);
  }
  next_seq_ = last_kept + 1;

  for (u32 i = re_n_; i > 0; --i) refetch_.push_front(re_[i - 1]);
  wrong_path_active_ = false;
  if (fetch_blocked_on_ && (keep_none || *fetch_blocked_on_ > last_kept)) {
    fetch_blocked_on_.reset();
  }
}

isa::DynInst Pipeline::synthesize_wrong_path(Pc pc) {
  // Plausible wrong-path filler: mostly ALU with some loads into the warm
  // region; consumes rename/issue/execute resources and pollutes the D-cache
  // but never the architectural state (squashed at branch resolution).
  isa::DynInst d;
  const u64 h = hash_mix(pc ^ 0x3b0a6ULL);
  d.pc = pc;
  d.next_pc = pc + isa::kInstrBytes;
  d.src1 = 1 + static_cast<int>(h % 24);
  d.dst = 1 + static_cast<int>((h >> 8) % 24);
  if ((h & 0xFF) < 77) {  // ~30% loads
    d.op = isa::OpClass::kLoad;
    d.mem_addr = (0x0800'0000ULL + (h % (128 * 1024))) & ~7ULL;
  } else {
    d.op = isa::OpClass::kIntAlu;
    d.src2 = 1 + static_cast<int>((h >> 16) % 24);
  }
  return d;
}

// ---- commit ----------------------------------------------------------------

void Pipeline::commit_stage() {
  // Every commit slot of this cycle is attributed to exactly one CPI-stack
  // cause: kBase per committed instruction, and when retire stops early the
  // remaining slots all share the cause of whatever blocks the ROB head
  // (apply_global_stall covers the global-stall cycles, so the invariant
  // sum(cpi.*) == cycles * commit_width holds for every step()).
  int budget = cfg_.commit_width;
  obs::CpiCause lost = obs::CpiCause::kBase;  // commit_limit_ windowing artifact
  while (budget > 0) {
    if (committed_ >= commit_limit_) break;  // run() boundary, not a real stall
    if (window_.empty()) {
      lost = classify_empty_window();
      break;
    }
    InstState& is = window_.head();
    if (!is.completed) {
      lost = classify_unretirable_head(is);
      break;
    }
    if (is.retire_fault && !is.retire_padded) {
      // Retire-stage violation: the stage takes two cycles for this
      // instruction; with a predictor this is a planned stall, without one a
      // Razor replay of the retire transit.
      is.retire_padded = true;
      if (scheme_.use_predictor) {
        c_inorder_stall_.inc();
      } else {
        c_inorder_replay_.inc();
        push_global_stall(static_cast<int>(scheme_.micro_stall_cycles) - 1,
                          obs::CpiCause::kReplay);
      }
      lost = obs::CpiCause::kReplay;
      break;  // retire loses the rest of this cycle
    }
    if (is.di.op == isa::OpClass::kStore) {
      memory_.store_commit(is.di.mem_addr);
      --sq_count_;
      c_dcache_write_.inc();
    }
    if (is.di.op == isa::OpClass::kLoad) --lq_count_;
    if (is.phys_dst != kNoReg && is.old_phys != kNoReg) free_list_.push_back(is.old_phys);
    // Committed-path fault rate (Table 1's FR): an instruction counts when
    // its committed instance faulted or it is the safe re-execution of one.
    if (is.actual_fault || is.safe_mode) c_committed_faulty_.inc();
    fire([&](SchedHooks& h) { h.on_committed(now_, is); });
    ++committed_;
    c_commit_.inc();
    c_cpi_[static_cast<std::size_t>(obs::CpiCause::kBase)].inc();
    window_.pop_front();
    --budget;
    last_commit_cycle_ = now_;
  }
  if (budget > 0) c_cpi_[static_cast<std::size_t>(lost)].inc(static_cast<u64>(budget));
}

obs::CpiCause Pipeline::classify_empty_window() const {
  // An empty ROB right after a replay squash is charged to the squash while
  // the refetched work refills the pipe; any other empty window is frontend
  // supply (icache misses, redirects, fetch depth, source drain).
  if (!refetch_.empty() || now_ < squash_recover_until_) {
    return obs::CpiCause::kSquashRefetch;
  }
  return obs::CpiCause::kFrontend;
}

obs::CpiCause Pipeline::classify_unretirable_head(const InstState& head) {
  using obs::CpiCause;
  if (head.issued) {
    // In flight: memory ops are a memory stall; a predicted-faulty VTE
    // instruction still in execute is paying its own padded cycle.
    if (isa::is_mem(head.di.op)) return CpiCause::kMemory;
    if (scheme_.vte && head.pred_fault) return CpiCause::kSlotFreeze;
    return CpiCause::kDataDep;
  }
  if (!operands_ready(head)) {
    // Blame the producer of the first not-ready operand.
    int waiting = kNoReg;
    if (head.phys_src1 != kNoReg && phys_ready_[static_cast<std::size_t>(head.phys_src1)] == 0) {
      waiting = head.phys_src1;
    } else if (head.phys_src2 != kNoReg &&
               phys_ready_[static_cast<std::size_t>(head.phys_src2)] == 0) {
      waiting = head.phys_src2;
    }
    if (waiting != kNoReg) {
      const InstState* prod = find(phys_producer_[static_cast<std::size_t>(waiting)]);
      if (prod != nullptr && prod->phys_dst == waiting) {
        if (isa::is_mem(prod->di.op)) return CpiCause::kMemory;
        // The producer's broadcast arrives a cycle late because VTE padded it.
        if (prod->issued && scheme_.vte && prod->pred_fault) {
          return CpiCause::kDelayedBroadcast;
        }
      }
    }
    return CpiCause::kDataDep;
  }
  // Ready but not selected: a frozen issue slot or the LSQ CAM spacing rule
  // is a VTE freeze; otherwise a structural port/select conflict.
  if (slots_frozen_now_ > 0) return CpiCause::kSlotFreeze;
  if (mem_blocked_now_ && isa::is_mem(head.di.op)) return CpiCause::kSlotFreeze;
  if (isa::is_mem(head.di.op)) return CpiCause::kMemory;
  return CpiCause::kDataDep;
}

void Pipeline::push_global_stall(int cycles, obs::CpiCause cause) {
  if (cycles <= 0) return;
  stall_pending_ += cycles;
  if (cause == obs::CpiCause::kEpStall) stall_pending_ep_ += cycles;
}

// ---- issue -----------------------------------------------------------------

bool Pipeline::operands_ready(const InstState& is) const {
  const bool r1 = is.phys_src1 == kNoReg || phys_ready_[static_cast<std::size_t>(is.phys_src1)] != 0;
  const bool r2 = is.phys_src2 == kNoReg || phys_ready_[static_cast<std::size_t>(is.phys_src2)] != 0;
  return r1 && r2;
}

bool Pipeline::load_may_issue(const InstState& load, bool* forwarded) const {
  // Idealized disambiguation: store addresses are known from the trace, so
  // only a genuinely conflicting older store gates the load.  The youngest
  // matching store decides: once it has issued (data available in the store
  // queue), the load forwards from it; before that the load waits.  The
  // window scans only its store mask, youngest first.
  return window_.load_may_issue(load.di.seq, load.di.mem_addr & ~7ULL, forwarded);
}

void Pipeline::select_stage() {
  int width = cfg_.issue_width - slots_frozen_now_;
  if (width <= 0) return;

  // Candidates = waiting & ready (& ~memop under the LSQ CAM spacing rule),
  // snapshotted so instructions woken by this cycle's issues don't join.
  const bool any = window_.collect_candidates(mem_blocked_now_, cand_words_);

  int issued = 0;
  const auto try_issue = [&](u32 slot) -> bool {
    if (width == 0) return false;  // stop the scan; selection is out of slots
    InstState& is = window_.slot_state(slot);
    bool fwd = false;
    if (is.di.op == isa::OpClass::kLoad) {
      if (!load_may_issue(is, &fwd)) {  // blocked by an older store
        fire([&](SchedHooks& h) { h.on_select_visit(now_, is, SelectOutcome::kLoadBlocked); });
        return true;
      }
    }
    if (issue_one(is, fwd)) {
      window_.on_issued(is.di.seq);
      --width;
      ++issued;
      fire([&](SchedHooks& h) { h.on_select_visit(now_, is, SelectOutcome::kIssued); });
    } else {
      fire([&](SchedHooks& h) { h.on_select_visit(now_, is, SelectOutcome::kFuBusy); });
    }
    return true;
  };
  const auto note_pass = [&](int pass) {
    fire([&](SchedHooks& h) { h.on_select_pass(now_, pass); });
  };

  // Ring order is age order (ages are assigned at dispatch and squash pops
  // the tail), so each policy is one or two in-order masked passes: the
  // preferred class first, then the rest -- exactly the old sorted order.
  if (any) {
    switch (scheme_.policy) {
      case SelectPolicy::kAge:
        note_pass(1);
        window_.for_each_in_order(cand_words_, nullptr, false, try_issue);
        break;
      case SelectPolicy::kFaultyFirst:
        note_pass(0);
        if (window_.for_each_in_order(cand_words_, window_.predf_mask(), false, try_issue)) {
          note_pass(1);
          window_.for_each_in_order(cand_words_, window_.predf_mask(), true, try_issue);
        }
        break;
      case SelectPolicy::kCriticalityDriven:
        note_pass(0);
        if (window_.for_each_in_order(cand_words_, window_.crit_mask(), false, try_issue)) {
          note_pass(1);
          window_.for_each_in_order(cand_words_, window_.crit_mask(), true, try_issue);
        }
        break;
    }
  }

  // Utilization diagnostics (consumed by tests and the ablation bench).
  if (!any) {
    c_sel_no_ready_.inc();
  } else if (issued == 0) {
    c_sel_blocked_.inc();
  }
  c_sel_issued_.inc(static_cast<u64>(issued));
  c_sel_iq_occ_.inc(static_cast<u64>(iq_count_));
  c_sel_window_.inc(window_.size());
  c_sel_frontend_.inc(frontend_.size());
}

bool Pipeline::issue_one(InstState& is, bool fwd) {
  // Execution latency by class.  `fwd` is the store-to-load forwarding
  // verdict from the caller's load_may_issue gate (still valid here: nothing
  // issues between the gate and this attempt).
  Cycle exec_lat = 1;
  switch (is.di.op) {
    case isa::OpClass::kIntMul: exec_lat = cfg_.mul_latency; break;
    case isa::OpClass::kIntDiv: exec_lat = cfg_.div_latency; break;
    case isa::OpClass::kLoad: {
      c_lsq_search_.inc();
      fire([&](SchedHooks& h) { h.on_lsq_search(now_, is); });
      if (fwd) {
        exec_lat = 2;  // store-to-load forward
        c_stl_forward_.inc();
      } else {
        exec_lat = 1 + memory_.load_latency(is.di.mem_addr);
        c_dcache_read_.inc();
      }
      break;
    }
    case isa::OpClass::kStore:
      c_lsq_search_.inc();
      fire([&](SchedHooks& h) { h.on_lsq_search(now_, is); });
      break;
    default:
      break;
  }

  // Fault oracle (Section 4.3) -- decided as the instruction engages the
  // OoO stages.
  if (faults_enabled() && !is.safe_mode && !is.wrong_path) {
    // Profiled as a sub-phase of kSelect (this runs inside the select
    // stage): how much wall-time the fault oracle costs.
    const obs::Profiler::Scope prof(profiler_, obs::ProfPhase::kFaultCheck);
    const timing::FaultClass cls = isa::is_mem(is.di.op) ? timing::FaultClass::kMemLike
                                                         : timing::FaultClass::kAluLike;
    const timing::FaultDecision d =
        clock_ == nullptr
            ? fault_model_->query(is.di.pc, cls, now_)
            : fault_model_->query_adaptive(is.di.pc, cls, now_, clock_period_scale_,
                                           operand_signature(is.di));
    is.actual_fault = d.faulty;
    is.actual_stage = d.stage;
  }

  // VTE: predicted-faulty instructions take one extra cycle in their faulty
  // stage and freeze the resource they occupy (Sections 3.2-3.3).  The
  // freeze is per functional unit / port ("freeze the corresponding issue
  // slot for the functional unit or memory port", Sec 3.3.1): the unit the
  // instruction uses cannot accept a new instruction the following cycle.
  // Only a writeback-stage fault freezes an issue-queue input slot
  // (Sec 3.3.5), costing one slot of global width.
  Cycle lat_delta = 0;
  bool fu_extra = false;
  bool wb_slot_freeze = false;
  if (scheme_.vte && is.pred_fault) {
    lat_delta = 1;
    if (is.pred_stage == timing::OooStage::kWriteback) {
      wb_slot_freeze = true;
    } else {
      fu_extra = true;
    }
  }
  if (is.safe_mode) lat_delta += 1;  // replayed instance runs padded

  const int fu = fus_.allocate(is.di.op, now_, exec_lat + lat_delta, fu_extra);
  if (fu < 0) return false;  // structural hazard; retry next cycle
  fire([&](SchedHooks& h) { h.on_fu_allocated(now_, is, fu, fus_.next_free(fu)); });
  if (wb_slot_freeze) ++slots_frozen_next_;
  // LSQ CAM spacing (Sec 3.3.4): no load/store may perform a CAM search in
  // the cycle right behind a predicted-faulty memory-stage instruction.
  if (scheme_.vte && is.pred_fault && is.pred_stage == timing::OooStage::kMemory) {
    mem_blocked_next_ = true;
  }

  is.issued = true;
  is.in_iq = false;
  --iq_count_;
  c_select_.inc();
  c_regread_.inc();
  // (ev.fu.* accounting happens inside FuPool::allocate.)

  const Cycle wakeup = now_ + exec_lat + lat_delta;
  schedule(wakeup, EventKind::kBroadcast, is.di.seq);
  schedule(wakeup + 1, EventKind::kComplete, is.di.seq);

  // Error Padding: one global stall cycle as the instruction transits its
  // predicted-faulty stage.
  if (scheme_.error_padding && is.pred_fault) {
    schedule(now_ + stage_offset(is.pred_stage, exec_lat), EventKind::kEpStall, is.di.seq);
  }

  if (is.actual_fault) {
    c_fault_actual_.inc();
    c_fault_stage_[static_cast<std::size_t>(is.actual_stage)].inc();
    const bool covered = is.pred_fault && is.pred_stage == is.actual_stage &&
                         (scheme_.vte || scheme_.error_padding);
    if (covered) {
      is.fault_handled = true;
      c_fault_handled_.inc();
    } else {
      is.replay_scheduled = true;
      schedule(wakeup + 1, EventKind::kReplay, is.di.seq);
    }
  }
  if (is.pred_fault) c_fault_predicted_.inc();
  if (is.pred_fault && !is.actual_fault) c_fault_false_pos_.inc();
  if (scheme_.use_predictor && !is.pred_fault && is.actual_fault) {
    c_fault_false_neg_.inc();
  }
  fire([&](SchedHooks& h) { h.on_issued(now_, is, exec_lat, lat_delta); });
  return true;
}

// ---- dispatch ----------------------------------------------------------------

void Pipeline::dispatch_stage() {
  int budget = cfg_.dispatch_width;
  while (budget > 0 && !frontend_.empty() && frontend_.front().arrive <= now_) {
    FetchedInst& fi = frontend_.front();
    if (static_cast<int>(window_.size()) >= cfg_.rob_entries) break;
    if (iq_count_ >= cfg_.iq_entries) break;
    const bool is_load = fi.di.op == isa::OpClass::kLoad;
    const bool is_store = fi.di.op == isa::OpClass::kStore;
    if (is_load && lq_count_ >= cfg_.lq_entries) break;
    if (is_store && sq_count_ >= cfg_.sq_entries) break;
    if (fi.di.dst != kNoReg && free_list_.empty()) break;

    InstState is;
    is.di = fi.di;
    is.di.seq = fi.seq;
    is.age = age_counter_++;
    is.tep_history = fi.history;
    is.safe_mode = fi.safe_mode;
    is.retire_fault = fi.retire_fault;
    is.wrong_path = fi.wrong_path;
    is.pred_fault = fi.pred.predicted;
    is.pred_stage = fi.pred.stage;
    is.pred_critical = fi.pred.critical;
    if (is.di.src1 != kNoReg) is.phys_src1 = rename_map_[static_cast<std::size_t>(is.di.src1)];
    if (is.di.src2 != kNoReg) is.phys_src2 = rename_map_[static_cast<std::size_t>(is.di.src2)];
    if (is.di.dst != kNoReg) {
      is.old_phys = rename_map_[static_cast<std::size_t>(is.di.dst)];
      is.phys_dst = free_list_.back();
      free_list_.pop_back();
      rename_map_[static_cast<std::size_t>(is.di.dst)] = is.phys_dst;
      phys_ready_[static_cast<std::size_t>(is.phys_dst)] = 0;
      phys_producer_[static_cast<std::size_t>(is.phys_dst)] = fi.seq;
    }
    is.in_iq = true;
    ++iq_count_;
    if (is_load) ++lq_count_;
    if (is_store) ++sq_count_;

    // Pending-operand flags seed the window's ready mask and the waiter
    // masks; from here on they only move on broadcasts (a source register
    // cannot be reallocated while this instruction is in the window).
    const bool p1 =
        is.phys_src1 != kNoReg && phys_ready_[static_cast<std::size_t>(is.phys_src1)] == 0;
    const bool p2 =
        is.phys_src2 != kNoReg && phys_ready_[static_cast<std::size_t>(is.phys_src2)] == 0;

    fire([&](SchedHooks& h) { h.on_dispatched(now_, is); });
    window_.push_back(is, p1, p2);
    frontend_.pop_front();
    --budget;
    c_dispatch_.inc();
    c_iq_write_.inc();
  }
}

// ---- fetch ---------------------------------------------------------------------

void Pipeline::fetch_stage() {
  if (now_ < fetch_stall_until_) return;
  if (fetch_blocked_on_.has_value()) {
    if (!cfg_.model_wrong_path || !wrong_path_active_) return;
    // Keep fetching down the predicted (wrong) path until the branch
    // resolves; this work is squashed, never committed.
    int wp_budget = cfg_.fetch_width;
    while (wp_budget > 0 && frontend_.size() < kFrontendCap) {
      FetchedInst fi;
      fi.di = synthesize_wrong_path(wrong_path_pc_);
      wrong_path_pc_ += isa::kInstrBytes;
      fi.seq = next_seq_++;
      fi.wrong_path = true;
      fi.arrive = now_ + static_cast<Cycle>(cfg_.frontend_depth);
      fi.history = bpred_.history();
      c_fetch_.inc();
      c_wrongpath_fetch_.inc();
      fire([&](SchedHooks& h) { h.on_fetched(now_, fi.seq, fi.di); });
      frontend_.push_back(fi);
      --wp_budget;
    }
    return;
  }
  int budget = cfg_.fetch_width;
  while (budget > 0 && frontend_.size() < kFrontendCap) {
    RefetchInst ri;
    if (!refetch_.empty()) {
      ri = refetch_.front();
      refetch_.pop_front();
    } else {
      if (source_done_) break;
      if (!source_->next(ri.di)) {
        source_done_ = true;
        break;
      }
    }

    FetchedInst fi;
    fi.di = ri.di;
    fi.safe_mode = ri.safe_mode;
    fi.seq = next_seq_++;
    c_fetch_.inc();

    const Cycle il = memory_.ifetch_latency(fi.di.pc);
    const Cycle extra = il > cfg_.l1i.latency ? il - cfg_.l1i.latency : 0;
    fi.arrive = now_ + extra + static_cast<Cycle>(cfg_.frontend_depth);

    // TEP lookup in parallel with decode (Section 2.1.1).
    fi.history = bpred_.history();
    if (scheme_.use_predictor && predictor_ != nullptr && faults_enabled()) {
      fi.pred = predictor_->predict(fi.di.pc, fi.history, now_);
    }

    // In-order engine faults (Section 2.2): rename/dispatch/retire use the
    // TEP-driven stall signal (the faulty stage completes in two cycles
    // while its inputs recirculate); fetch/decode faults always replay.
    if (scheme_.inorder_fault_scale > 0.0 && faults_enabled()) {
      const timing::InOrderFaultDecision iod =
          clock_ == nullptr
              ? fault_model_->query_inorder(fi.di.pc, now_, scheme_.inorder_fault_scale)
              : fault_model_->query_inorder_adaptive(fi.di.pc, now_,
                                                     scheme_.inorder_fault_scale,
                                                     clock_period_scale_);
      if (iod.faulty) {
        switch (iod.stage) {
          case timing::InOrderStage::kFetch:
          case timing::InOrderStage::kDecode: {
            c_inorder_replay_.inc();
            const Cycle recovery = static_cast<Cycle>(cfg_.replay_recovery);
            fetch_stall_until_ = std::max(fetch_stall_until_, now_ + recovery);
            fi.arrive += recovery;
            break;
          }
          case timing::InOrderStage::kRename:
          case timing::InOrderStage::kDispatch:
            if (scheme_.use_predictor) {
              c_inorder_stall_.inc();
              fi.arrive += 1;  // stage completes in two cycles, inputs recirculate
            } else {
              c_inorder_replay_.inc();
              push_global_stall(static_cast<int>(scheme_.micro_stall_cycles),
                                obs::CpiCause::kReplay);
            }
            break;
          case timing::InOrderStage::kRetire:
            fi.retire_fault = true;
            break;
        }
      }
    }

    bool blocked = false;
    if (fi.di.op == isa::OpClass::kBranch) {
      const BranchPrediction bp = bpred_.predict(fi.di.pc);
      const bool mispred = bp.taken != fi.di.taken ||
                           (fi.di.taken && (!bp.target_known || bp.target != fi.di.next_pc));
      bpred_.update(fi.di.pc, fi.di.taken, fi.di.next_pc);
      if (mispred) {
        bpred_.note_mispredict();
        c_branch_mispredict_.inc();
        fetch_blocked_on_ = fi.seq;
        blocked = true;
        if (cfg_.model_wrong_path) {
          wrong_path_active_ = true;
          wrong_path_pc_ = bp.taken && bp.target_known ? bp.target : fi.di.pc + isa::kInstrBytes;
        }
      }
    }
    fire([&](SchedHooks& h) { h.on_fetched(now_, fi.seq, fi.di); });
    frontend_.push_back(fi);
    --budget;
    if (blocked) break;
    if (extra > 0) {
      fetch_stall_until_ = now_ + extra;
      break;
    }
  }
}

// ---- main loop -------------------------------------------------------------------

void Pipeline::apply_global_stall() {
  // A global-stall cycle loses the full commit width; EP padding drains
  // first (deterministically) so mixed EP+replay queues attribute exactly.
  --stall_pending_;
  obs::CpiCause cause = obs::CpiCause::kReplay;
  if (stall_pending_ep_ > 0) {
    --stall_pending_ep_;
    cause = obs::CpiCause::kEpStall;
  }
  fire([&](SchedHooks& h) { h.on_global_stall(now_, cause == obs::CpiCause::kEpStall); });
  c_cpi_[static_cast<std::size_t>(cause)].inc(static_cast<u64>(cfg_.commit_width));
  shift_all_times(1);
  c_stall_cycles_.inc();
}

bool Pipeline::step() {
  if (source_done_ && window_.empty() && frontend_.empty() && refetch_.empty()) return false;

  if (stall_pending_ > 0) {
    apply_global_stall();
    ++now_;
    note_clock();  // a stalled cycle still spends wall time at the current period
    return true;
  }

  slots_frozen_now_ = slots_frozen_next_;
  slots_frozen_next_ = 0;
  mem_blocked_now_ = mem_blocked_next_;
  mem_blocked_next_ = false;

  fire([&](SchedHooks& h) { h.on_cycle_start(now_, slots_frozen_now_, mem_blocked_now_); });
  // One scope per stage; a detached profiler reads no clock.
  {
    const obs::Profiler::Scope s(profiler_, obs::ProfPhase::kExecute);
    process_events();
  }
  {
    const obs::Profiler::Scope s(profiler_, obs::ProfPhase::kCommit);
    commit_stage();
  }
  {
    const obs::Profiler::Scope s(profiler_, obs::ProfPhase::kSelect);
    select_stage();
  }
  {
    const obs::Profiler::Scope s(profiler_, obs::ProfPhase::kDispatch);
    dispatch_stage();
  }
  {
    const obs::Profiler::Scope s(profiler_, obs::ProfPhase::kFetch);
    fetch_stage();
  }

  ++now_;
  note_timeline();
  note_clock();
  if (!window_.empty() && now_ - last_commit_cycle_ > cfg_.watchdog_cycles) {
    throw std::runtime_error("Pipeline deadlock: no commit in watchdog window");
  }
  return true;
}

void Pipeline::set_timeline(obs::Timeline* timeline, u64 interval) {
  timeline_ = (timeline != nullptr && interval > 0) ? timeline : nullptr;
  timeline_interval_ = interval;
  // Arm the next threshold from the current commit count so a re-attach
  // after a warm-start restore continues the K-commit grid seamlessly.
  timeline_next_ =
      timeline_ != nullptr ? (committed_ / interval + 1) * interval : ~0ULL;
}

void Pipeline::set_clock(adapt::ClockDomain* clock) {
  clock_ = clock;
  if (clock_ == nullptr) {
    clock_interval_ = 0;
    clock_next_ = ~0ULL;
    clock_period_scale_ = 1.0;
    return;
  }
  clock_->bind(registry_);
  clock_interval_ = clock_->epoch_interval();
  clock_next_ = (committed_ / clock_interval_ + 1) * clock_interval_;
  clock_period_scale_ = clock_->period_scale();
}

adapt::EpochSample Pipeline::epoch_sample() const {
  adapt::EpochSample s;
  s.committed = committed_;
  s.cycles = now_;
  s.violations = c_fault_actual_.value();
  s.replays = c_replays_.value();
  for (int i = 0; i < timing::kNumOooStages; ++i) {
    s.stage_violations[static_cast<std::size_t>(i)] =
        c_fault_stage_[static_cast<std::size_t>(i)].value();
  }
  s.mem_slots = c_cpi_[static_cast<std::size_t>(obs::CpiCause::kMemory)].value();
  u64 total = 0;
  for (const auto& c : c_cpi_) total += c.value();
  s.total_slots = total;
  if (fault_model_ != nullptr) {
    const timing::Environment& env = fault_model_->environment();
    s.hot = env.thermal_component(now_) > 0.0;
    s.droopy = env.droop_component(now_) > 0.0;
  }
  return s;
}

StatSet Pipeline::snapshot_stats() const {
  // The cold StatSet merged with every registry counter (which now includes
  // the cache hierarchy and FU pool) plus branch-predictor state and the
  // cycle count.  Cold path: string lookups are fine here.
  StatSet s = stats_;
  registry_.export_to(s);
  s.inc("branch.lookups", bpred_.lookups());
  s.inc("branch.mispredicts_total", bpred_.mispredicts());
  s.inc("cycles", now_);
  return s;
}

PipelineResult Pipeline::run(u64 max_committed, u64 warmup_committed) {
  StatSet base;
  u64 base_committed = 0;
  Cycle base_cycles = 0;
  if (warmup_committed > 0) {
    commit_limit_ = warmup_committed;
    while (committed_ < warmup_committed && step()) {
    }
    base = snapshot_stats();
    base_committed = committed_;
    base_cycles = now_;
  }

  const u64 target = warmup_committed + max_committed;
  commit_limit_ = target;
  while (committed_ < target && step()) {
  }

  return result_window(base, base_committed, base_cycles);
}

PipelineResult Pipeline::result_window(const StatSet& base, u64 base_committed,
                                       Cycle base_cycles) const {
  PipelineResult r;
  r.committed = committed_ - base_committed;
  r.cycles = now_ - base_cycles;
  r.stats = snapshot_stats().diff(base);
  r.stats.set("ipc", r.committed == 0 || r.cycles == 0
                         ? 0.0
                         : static_cast<double>(r.committed) / static_cast<double>(r.cycles));
  // The measured window's CPI stack; cpi.* counters are monotonic, so the
  // warmup diff above already windowed them.
  r.cpi = obs::CpiStack::from_stats(r.stats);
  return r;
}

// ---- snapshot ---------------------------------------------------------------

void Pipeline::save_state(snap::Writer& w) const {
  // Rename state.
  w.put_u32(static_cast<u32>(rename_map_.size()));
  for (const int v : rename_map_) w.put_i32(v);
  w.put_u32(static_cast<u32>(free_list_.size()));
  for (const int v : free_list_) w.put_i32(v);
  w.put_u32(static_cast<u32>(phys_ready_.size()));
  for (const u8 v : phys_ready_) w.put_u8(v);
  for (const SeqNum v : phys_producer_) w.put_u64(v);

  // Scheduler kernel.
  window_.save_state(w);
  w.put_u64(next_seq_);
  w.put_u32(frontend_.size());
  for (u32 i = 0; i < frontend_.size(); ++i) {
    const FetchedInst& f = frontend_.at(i);
    put_dyninst(w, f.di);
    w.put_u64(f.seq);
    w.put_u64(f.arrive);
    w.put_bool(f.pred.predicted);
    w.put_u8(static_cast<u8>(f.pred.stage));
    w.put_bool(f.pred.critical);
    w.put_u64(f.history);
    w.put_bool(f.safe_mode);
    w.put_bool(f.retire_fault);
    w.put_bool(f.wrong_path);
  }
  w.put_u32(refetch_.size());
  for (u32 i = 0; i < refetch_.size(); ++i) {
    const RefetchInst& re = refetch_.at(i);
    put_dyninst(w, re.di);
    w.put_bool(re.safe_mode);
  }
  wheel_.save_state(w);
  w.put_u64(event_shift_);

  // Cycle state.
  w.put_u64(now_);
  w.put_u64(committed_);
  w.put_u64(age_counter_);
  w.put_i32(iq_count_);
  w.put_i32(lq_count_);
  w.put_i32(sq_count_);
  w.put_bool(source_done_);
  w.put_u64(fetch_stall_until_);
  w.put_bool(fetch_blocked_on_.has_value());
  w.put_u64(fetch_blocked_on_.value_or(0));
  w.put_bool(wrong_path_active_);
  w.put_u64(wrong_path_pc_);
  w.put_i32(stall_pending_);
  w.put_i32(stall_pending_ep_);
  w.put_u64(squash_recover_until_);
  w.put_i32(slots_frozen_now_);
  w.put_i32(slots_frozen_next_);
  w.put_bool(mem_blocked_now_);
  w.put_bool(mem_blocked_next_);
  w.put_u64(last_commit_cycle_);

  // Metrics and components.
  snap::put_statset(w, stats_);
  registry_.save_state(w);
  memory_.save_state(w);
  bpred_.save_state(w);
  fus_.save_state(w);
}

void Pipeline::restore_state(snap::Reader& r) {
  if (r.get_u32() != rename_map_.size()) throw snap::SnapshotError("rename map size mismatch");
  for (int& v : rename_map_) v = r.get_i32();
  const u32 fl = r.get_u32();
  if (fl > static_cast<u32>(cfg_.phys_regs)) throw snap::SnapshotError("free list over capacity");
  free_list_.resize(fl);
  for (int& v : free_list_) v = r.get_i32();
  if (r.get_u32() != phys_ready_.size()) throw snap::SnapshotError("phys reg count mismatch");
  for (u8& v : phys_ready_) v = r.get_u8();
  for (SeqNum& v : phys_producer_) v = r.get_u64();

  window_.restore_state(r);
  next_seq_ = r.get_u64();
  const u32 fn = r.get_u32();
  if (fn > frontend_.capacity()) throw snap::SnapshotError("frontend queue over capacity");
  frontend_.clear();
  for (u32 i = 0; i < fn; ++i) {
    FetchedInst f;
    f.di = get_dyninst(r);
    f.seq = r.get_u64();
    f.arrive = r.get_u64();
    f.pred.predicted = r.get_bool();
    f.pred.stage = static_cast<timing::OooStage>(r.get_u8());
    f.pred.critical = r.get_bool();
    f.history = r.get_u64();
    f.safe_mode = r.get_bool();
    f.retire_fault = r.get_bool();
    f.wrong_path = r.get_bool();
    frontend_.push_back(f);
  }
  const u32 rn = r.get_u32();
  if (rn > refetch_.capacity()) throw snap::SnapshotError("refetch queue over capacity");
  refetch_.clear();
  for (u32 i = 0; i < rn; ++i) {
    RefetchInst re;
    re.di = get_dyninst(r);
    re.safe_mode = r.get_bool();
    refetch_.push_back(re);
  }
  wheel_.restore_state(r);
  event_shift_ = r.get_u64();

  now_ = r.get_u64();
  committed_ = r.get_u64();
  age_counter_ = r.get_u64();
  iq_count_ = r.get_i32();
  lq_count_ = r.get_i32();
  sq_count_ = r.get_i32();
  source_done_ = r.get_bool();
  fetch_stall_until_ = r.get_u64();
  const bool have_blocked = r.get_bool();
  const SeqNum blocked_seq = r.get_u64();
  fetch_blocked_on_ = have_blocked ? std::optional<SeqNum>(blocked_seq) : std::nullopt;
  wrong_path_active_ = r.get_bool();
  wrong_path_pc_ = r.get_u64();
  stall_pending_ = r.get_i32();
  stall_pending_ep_ = r.get_i32();
  squash_recover_until_ = r.get_u64();
  slots_frozen_now_ = r.get_i32();
  slots_frozen_next_ = r.get_i32();
  mem_blocked_now_ = r.get_bool();
  mem_blocked_next_ = r.get_bool();
  last_commit_cycle_ = r.get_u64();

  stats_ = snap::get_statset(r);
  registry_.restore_state(r);
  memory_.restore_state(r);
  bpred_.restore_state(r);
  fus_.restore_state(r);
}

// ---- scheme factories ---------------------------------------------------------

SchemeConfig scheme_fault_free() {
  SchemeConfig s;
  s.name = "fault-free";
  return s;
}

SchemeConfig scheme_razor() {
  SchemeConfig s;
  s.name = "razor";
  s.use_predictor = false;
  return s;
}

// All factory schemes recover unpredicted faults with the RazorII-style
// in-place replay (Section 2.1.2); squash-refetch remains available through
// SchemeConfig::recovery and is compared in bench_ablation.

SchemeConfig scheme_error_padding() {
  SchemeConfig s;
  s.name = "ep";
  s.use_predictor = true;
  s.error_padding = true;
  return s;
}

SchemeConfig scheme_abs() {
  SchemeConfig s;
  s.name = "abs";
  s.use_predictor = true;
  s.vte = true;
  s.policy = SelectPolicy::kAge;
  return s;
}

SchemeConfig scheme_ffs() {
  SchemeConfig s;
  s.name = "ffs";
  s.use_predictor = true;
  s.vte = true;
  s.policy = SelectPolicy::kFaultyFirst;
  return s;
}

SchemeConfig scheme_cds() {
  SchemeConfig s;
  s.name = "cds";
  s.use_predictor = true;
  s.vte = true;
  s.policy = SelectPolicy::kCriticalityDriven;
  return s;
}

}  // namespace vasim::cpu
