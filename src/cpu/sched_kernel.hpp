// Data-oriented scheduler kernel: the storage layer of the out-of-order
// cycle loop.
//
// The paper's contribution lives in the issue stage (TEP-gated
// wakeup/select, delayed broadcast, slot freezing, the ABS/FFS/CDS
// policies), so the per-cycle hot loop is dominated by scheduler-structure
// walks.  This header provides the four data structures that replace the
// seed's array-of-structs deque walks with word-wide bit operations:
//
//  * Arena       -- one reusable allocation per pipeline; every per-run
//                   scratch array is carved from it, so the steady-state
//                   cycle loop performs zero heap allocations (asserted by
//                   tests/test_sched_kernel.cpp).
//  * Ring<T>     -- fixed-capacity power-of-two ring buffer (ROB window,
//                   frontend and refetch queues; no deque node churn).
//  * EventWheel  -- countdown wheel of intrusive event lists sized to the
//                   max execution latency + delayed-broadcast slack;
//                   schedule/pop are O(1) and the pooled nodes never touch
//                   the allocator.  Each bucket tracks its max SeqNum so a
//                   squash skips buckets with no squashed events.
//  * IssueWindow -- structure-of-arrays issue window: hot per-slot fields
//                   (source tags, pending-operand counts, quantized
//                   load/store addresses, mod-64 ABS timestamps) live in
//                   parallel arrays with 64-bit waiting/ready/
//                   predicted-faulty/critical/memop/store bitmasks, so
//                   wakeup is a masked scan of the not-ready waiters and
//                   ABS/FFS/CDS selection is masked std::countr_zero
//                   iteration instead of building and sorting a candidate
//                   pointer vector.
//
// Everything here is behaviour-preserving with respect to the seed
// implementation: tests/test_golden_equiv.cpp pins bitwise-identical
// results across the scheme x benchmark x supply grid.
#ifndef VASIM_CPU_SCHED_KERNEL_HPP
#define VASIM_CPU_SCHED_KERNEL_HPP

#include <bit>
#include <cstddef>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "src/common/types.hpp"
#include "src/cpu/hooks.hpp"
#include "src/isa/dyninst.hpp"
#include "src/snap/io.hpp"
#include "src/timing/stage.hpp"

namespace vasim::cpu {

/// Smallest power of two >= v (v >= 1).
constexpr u32 next_pow2_u32(u32 v) {
  return v <= 1 ? 1u : u32{1} << (32 - std::countl_zero(v - 1));
}

// ---- arena -----------------------------------------------------------------

/// Bump allocator over one contiguous block.  The pipeline computes its
/// total scratch budget up front, reserves once, and carves every array out
/// of the block; there is no free().  Types must be trivially copyable --
/// slots are initialized by whole-struct assignment, never constructors.
class Arena {
 public:
  /// Size the block.  Discards all previous carvings.
  void reserve(std::size_t bytes) {
    block_.assign(bytes, std::byte{0});
    used_ = 0;
  }

  /// Bytes to budget for an alloc<T>(n) (payload + worst-case padding).
  template <typename T>
  [[nodiscard]] static constexpr std::size_t need(std::size_t n) {
    return n * sizeof(T) + alignof(T);
  }

  template <typename T>
  [[nodiscard]] T* alloc(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    used_ = (used_ + alignof(T) - 1) & ~(alignof(T) - 1);
    if (used_ + n * sizeof(T) > block_.size()) {
      throw std::logic_error("Arena: scratch budget under-computed");
    }
    T* p = reinterpret_cast<T*>(block_.data() + used_);
    used_ += n * sizeof(T);
    return p;
  }

  [[nodiscard]] std::size_t capacity() const { return block_.size(); }
  [[nodiscard]] std::size_t used() const { return used_; }

 private:
  std::vector<std::byte> block_;
  std::size_t used_ = 0;
};

// ---- ring ------------------------------------------------------------------

/// Fixed-capacity power-of-two ring over arena storage.  push when full is
/// a hard error (capacities are provable bounds, see pipeline.cpp); going
/// past them means the bound reasoning broke, and a loud failure beats
/// silent corruption.
template <typename T>
class Ring {
 public:
  void init(T* storage, u32 cap_pow2) {
    s_ = storage;
    mask_ = cap_pow2 - 1;
    head_ = 0;
    size_ = 0;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] u32 size() const { return size_; }
  [[nodiscard]] u32 capacity() const { return mask_ + 1; }

  [[nodiscard]] T& front() { return s_[head_]; }
  [[nodiscard]] const T& front() const { return s_[head_]; }
  [[nodiscard]] T& back() { return s_[(head_ + size_ - 1) & mask_]; }
  /// i-th element from the front.
  [[nodiscard]] T& at(u32 i) { return s_[(head_ + i) & mask_]; }
  [[nodiscard]] const T& at(u32 i) const { return s_[(head_ + i) & mask_]; }

  void push_back(const T& v) {
    check_space();
    s_[(head_ + size_) & mask_] = v;
    ++size_;
  }
  void push_front(const T& v) {
    check_space();
    head_ = (head_ - 1) & mask_;
    s_[head_] = v;
    ++size_;
  }
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  void pop_back() { --size_; }
  void clear() { size_ = 0; }

 private:
  void check_space() const {
    if (size_ > mask_) throw std::logic_error("Ring: capacity bound violated");
  }

  T* s_ = nullptr;
  u32 mask_ = 0;
  u32 head_ = 0;
  u32 size_ = 0;
};

// ---- event wheel -----------------------------------------------------------

enum class EventKind : u8 { kBroadcast, kComplete, kEpStall, kReplay };

struct Event {
  EventKind kind = EventKind::kComplete;
  SeqNum seq = 0;
};

/// Countdown wheel of pooled intrusive event lists, keyed by *stored* cycle
/// (due cycle minus the pipeline's global-stall shift).  The pipeline pops
/// exactly one stored cycle per scheduling step, in order, so `pop_due`
/// drains a single bucket; an event scheduled for an already-popped stored
/// cycle (Error Padding at stage offset 0) lands in the next pop, exactly
/// matching the seed's "pop every bucket <= now" map semantics.
class EventWheel {
 public:
  [[nodiscard]] static std::size_t bytes_needed(u32 buckets, u32 pool) {
    return Arena::need<Node>(pool) + Arena::need<i32>(buckets) + Arena::need<SeqNum>(buckets) +
           Arena::need<u64>(buckets / 64 + 1);
  }

  void init(Arena& a, u32 buckets_pow2, u32 pool_cap);

  /// Schedules (kind, seq) at `stored_cycle`.  Past-due cycles snap to the
  /// next pop (see class comment).
  void schedule(Cycle stored_cycle, EventKind kind, SeqNum seq) {
    if (stored_cycle < next_pop_) stored_cycle = next_pop_;
    if (stored_cycle - next_pop_ > mask_) {
      throw std::logic_error("EventWheel: horizon under-computed for this configuration");
    }
    if (free_ < 0) throw std::logic_error("EventWheel: node pool exhausted");
    const u32 b = static_cast<u32>(stored_cycle) & mask_;
    const i32 idx = free_;
    Node& n = pool_[idx];
    free_ = n.next;
    n.seq = seq;
    n.kind = kind;
    n.next = heads_[b];
    if (heads_[b] < 0 || seq > max_seq_[b]) max_seq_[b] = seq;
    heads_[b] = idx;
    occ_[b >> 6] |= u64{1} << (b & 63);
  }

  /// Drains the bucket due at `stored_now` (which must advance by exactly
  /// one per call -- the pipeline's scheduling-step invariant) into `out`;
  /// returns the count.  Order within a bucket is unspecified; the caller
  /// sorts by (kind, seq) exactly as the seed did.
  u32 pop_due(Cycle stored_now, Event* out) {
    next_pop_ = stored_now + 1;
    const u32 b = static_cast<u32>(stored_now) & mask_;
    u32 n = 0;
    i32 idx = heads_[b];
    while (idx >= 0) {
      Node& node = pool_[idx];
      out[n++] = Event{node.kind, node.seq};
      const i32 nx = node.next;
      node.next = free_;
      free_ = idx;
      idx = nx;
    }
    heads_[b] = -1;
    max_seq_[b] = 0;
    occ_[b >> 6] &= ~(u64{1} << (b & 63));
    return n;
  }

  /// Drops every pending event with seq > last_kept (their sequence numbers
  /// are about to be recycled by a squash).  Buckets whose max SeqNum is
  /// <= last_kept hold no squashed events and are skipped without scanning.
  void filter_squashed(SeqNum last_kept);

  /// Drops every pending event (full squash: nothing in flight survives, so
  /// no event is still meaningful).  The time base (`next_pop_`) persists.
  void clear_events();

  [[nodiscard]] u32 buckets() const { return mask_ + 1; }
  [[nodiscard]] u32 pool_capacity() const { return pool_cap_; }

  /// Serializes the time base plus every pending event with its *absolute*
  /// stored cycle (reconstructed from the bucket index relative to
  /// next_pop_).  Restore re-schedules each event, so free-list and
  /// intra-bucket list order may differ from the original -- unobservable,
  /// because pop_due's contract leaves intra-bucket order unspecified and
  /// the pipeline sorts popped events by (kind, seq).
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

 private:
  struct Node {
    SeqNum seq = 0;
    i32 next = -1;
    EventKind kind = EventKind::kComplete;
  };

  Node* pool_ = nullptr;
  i32* heads_ = nullptr;
  SeqNum* max_seq_ = nullptr;
  u64* occ_ = nullptr;
  i32 free_ = -1;
  u32 mask_ = 0;
  u32 pool_cap_ = 0;
  Cycle next_pop_ = 0;
};

// ---- issue window ----------------------------------------------------------

/// Per-instruction in-flight bookkeeping (the "cold" record; one ring slot
/// each).  The fields the per-cycle loops touch are mirrored into the
/// IssueWindow's parallel arrays and bitmasks.
struct InstState {
  isa::DynInst di;
  u64 age = 0;  ///< issue timestamp (ABS selection key)
  u64 tep_history = 0;
  // Rename.
  int phys_dst = kNoReg;
  int old_phys = kNoReg;
  int phys_src1 = kNoReg;
  int phys_src2 = kNoReg;
  // Status.
  bool in_iq = false;
  bool issued = false;
  bool completed = false;
  bool safe_mode = false;  ///< replayed instance: guaranteed fault-free
  // Fault metadata.
  bool pred_fault = false;
  timing::OooStage pred_stage = timing::OooStage::kIssueSelect;
  bool pred_critical = false;
  bool actual_fault = false;
  timing::OooStage actual_stage = timing::OooStage::kIssueSelect;
  bool fault_handled = false;
  bool replay_scheduled = false;
  bool retire_fault = false;   ///< in-order retire-stage violation
  bool retire_padded = false;  ///< retire already took its extra cycle
  bool wrong_path = false;     ///< synthesized mispredicted-path work
};

/// DynInst / InstState snapshot codecs, shared by IssueWindow::save_state
/// and the Pipeline's frontend/refetch ring serialization.
void put_dyninst(snap::Writer& w, const isa::DynInst& d);
isa::DynInst get_dyninst(snap::Reader& r);
void put_inst_state(snap::Writer& w, const InstState& is);
InstState get_inst_state(snap::Reader& r);

/// Structure-of-arrays ROB/issue window.  Slots are addressed by
/// seq & (capacity-1): the window holds a contiguous SeqNum range no longer
/// than the ROB, so the mapping is collision-free and a commit/squash never
/// moves survivors.  Ring order (head slot onwards) *is* dispatch order is
/// age order, which is what every selection policy ultimately sorts by.
class IssueWindow {
 public:
  /// Number of 64-slot mask words for a given capacity.
  [[nodiscard]] static constexpr u32 words_for(u32 cap_pow2) { return (cap_pow2 + 63) / 64; }

  [[nodiscard]] static std::size_t bytes_needed(u32 cap_pow2, u32 num_phys) {
    const u32 w = words_for(cap_pow2);
    return Arena::need<InstState>(cap_pow2) + Arena::need<i32>(2 * cap_pow2) +
           Arena::need<u64>(cap_pow2) + Arena::need<u8>(2 * cap_pow2) +
           7 * Arena::need<u64>(w) + 2 * Arena::need<u64>(num_phys * w);
  }

  void init(Arena& a, u32 cap_pow2, u32 num_phys) {
    cap_mask_ = cap_pow2 - 1;
    words_ = words_for(cap_pow2);
    num_phys_ = num_phys;
    cold_ = a.alloc<InstState>(cap_pow2);
    src1_ = a.alloc<i32>(cap_pow2);
    src2_ = a.alloc<i32>(cap_pow2);
    addrq_ = a.alloc<u64>(cap_pow2);
    pending_ = a.alloc<u8>(cap_pow2);
    abs6_ = a.alloc<u8>(cap_pow2);
    waiting_ = a.alloc<u64>(words_);
    ready_ = a.alloc<u64>(words_);
    issued_ = a.alloc<u64>(words_);
    predf_ = a.alloc<u64>(words_);
    crit_ = a.alloc<u64>(words_);
    memop_ = a.alloc<u64>(words_);
    store_ = a.alloc<u64>(words_);
    waiters1_ = a.alloc<u64>(num_phys * words_);
    waiters2_ = a.alloc<u64>(num_phys * words_);
    for (u32 w = 0; w < words_; ++w) {
      waiting_[w] = ready_[w] = issued_[w] = predf_[w] = crit_[w] = memop_[w] = store_[w] = 0;
    }
    for (u32 i = 0; i < num_phys * words_; ++i) waiters1_[i] = waiters2_[i] = 0;
    head_seq_ = 0;
    size_ = 0;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] u32 size() const { return size_; }
  [[nodiscard]] u32 capacity() const { return cap_mask_ + 1; }
  [[nodiscard]] u32 mask_words() const { return words_; }
  [[nodiscard]] SeqNum head_seq() const { return head_seq_; }
  [[nodiscard]] u32 slot_of(SeqNum seq) const { return static_cast<u32>(seq) & cap_mask_; }

  [[nodiscard]] InstState& slot_state(u32 slot) { return cold_[slot]; }
  [[nodiscard]] const InstState& slot_state(u32 slot) const { return cold_[slot]; }
  [[nodiscard]] InstState& head() { return cold_[slot_of(head_seq_)]; }
  [[nodiscard]] InstState& back() { return cold_[slot_of(head_seq_ + size_ - 1)]; }

  [[nodiscard]] InstState* find(SeqNum seq) {
    if (size_ == 0 || seq < head_seq_ || seq - head_seq_ >= size_) return nullptr;
    return &cold_[slot_of(seq)];
  }

  /// Appends the (fully initialized) record at the tail.  `src1_pending` /
  /// `src2_pending` flag the source operands that are not yet ready; the hot
  /// mirrors (including the per-register waiter masks) are derived here, in
  /// one place.
  void push_back(const InstState& is, bool src1_pending, bool src2_pending) {
    if (size_ > cap_mask_) throw std::logic_error("IssueWindow: over capacity");
    const SeqNum seq = is.di.seq;
    if (size_ == 0) head_seq_ = seq;
    const u32 slot = slot_of(seq);
    cold_[slot] = is;
    src1_[slot] = is.phys_src1;
    src2_[slot] = is.phys_src2;
    addrq_[slot] = is.di.mem_addr & ~7ULL;
    const int pending = (src1_pending ? 1 : 0) + (src2_pending ? 1 : 0);
    pending_[slot] = static_cast<u8>(pending);
    abs6_[slot] = static_cast<u8>(is.age & 63);
    const u64 bit = u64{1} << (slot & 63);
    const u32 w = slot >> 6;
    if (src1_pending) waiters1_[static_cast<u32>(is.phys_src1) * words_ + w] |= bit;
    if (src2_pending) waiters2_[static_cast<u32>(is.phys_src2) * words_ + w] |= bit;
    waiting_[w] |= bit;
    set_or_clear(ready_, w, bit, pending == 0);
    issued_[w] &= ~bit;
    set_or_clear(predf_, w, bit, is.pred_fault);
    set_or_clear(crit_, w, bit, is.pred_fault && is.pred_critical);
    set_or_clear(memop_, w, bit, isa::is_mem(is.di.op));
    set_or_clear(store_, w, bit, is.di.op == isa::OpClass::kStore);
    ++size_;
  }

  /// Retires the head (commit).
  void pop_front() {
    clear_slot_bits(slot_of(head_seq_));
    ++head_seq_;
    --size_;
  }

  /// Drops the tail (squash).
  void pop_back() {
    clear_slot_bits(slot_of(head_seq_ + size_ - 1));
    --size_;
  }

  /// The instruction left the queue: no longer a wakeup/select participant.
  void on_issued(SeqNum seq) {
    const u32 slot = slot_of(seq);
    waiting_[slot >> 6] &= ~(u64{1} << (slot & 63));
    issued_[slot >> 6] |= u64{1} << (slot & 63);
  }

  /// Tag broadcast: wakes every waiting instruction whose source matches
  /// `dst_phys` and returns the number of waiting dependents (the CDL count
  /// of Section 3.5.2).  The scan is confined to the register's waiter
  /// masks, populated at dispatch: a consumer that was ready at dispatch can
  /// never see this broadcast (the register broadcasts exactly once per
  /// allocation and cannot be reallocated while a consumer is in the
  /// window), so the masks cover every true waiter.  A mask bit can be
  /// stale -- its slot recycled by commit+dispatch or squash -- so each hit
  /// is validated against the live source tags before it counts.
  int wake(int dst_phys) {
    int deps = 0;
    u64* m1w = waiters1_ + static_cast<u32>(dst_phys) * words_;
    u64* m2w = waiters2_ + static_cast<u32>(dst_phys) * words_;
    for (u32 w = 0; w < words_; ++w) {
      u64 bits = (m1w[w] | m2w[w]) & waiting_[w] & ~ready_[w];
      m1w[w] = 0;
      m2w[w] = 0;
      while (bits != 0) {
        const u32 slot = w * 64 + static_cast<u32>(std::countr_zero(bits));
        const u64 bit = bits & (~bits + 1);
        bits &= bits - 1;
        const bool m1 = src1_[slot] == dst_phys;
        const bool m2 = src2_[slot] == dst_phys;
        if (!m1 && !m2) continue;  // stale bit from a recycled slot
        ++deps;
        pending_[slot] = static_cast<u8>(pending_[slot] - (m1 ? 1 : 0) - (m2 ? 1 : 0));
        if (pending_[slot] == 0) ready_[w] |= bit;
      }
    }
    return deps;
  }

  /// Fills `out[mask_words()]` with this cycle's select candidates
  /// (waiting, operands ready, and not a blocked memory op); returns true
  /// when any candidate exists.
  bool collect_candidates(bool mem_blocked, u64* out) const {
    u64 any = 0;
    for (u32 w = 0; w < words_; ++w) {
      u64 c = waiting_[w] & ready_[w];
      if (mem_blocked) c &= ~memop_[w];
      out[w] = c;
      any |= c;
    }
    return any != 0;
  }

  /// Visits candidate slots in seq (= age) order: the ring segment from the
  /// head slot wraps at capacity.  `filter`/`invert` restrict to a policy
  /// class (predicted-faulty first, critical first).  `f(slot)` returns
  /// false to stop; the function returns false when stopped early.
  template <typename F>
  bool for_each_in_order(const u64* cand, const u64* filter, bool invert, F&& f) const {
    const u32 head_slot = slot_of(head_seq_);
    const u32 cap = cap_mask_ + 1;
    const u32 end = head_slot + size_;
    if (!visit_range(cand, filter, invert, head_slot, end < cap ? end : cap, f)) return false;
    if (end > cap) {
      if (!visit_range(cand, filter, invert, 0, end - cap, f)) return false;
    }
    return true;
  }

  /// Store-to-load gate (idealized disambiguation): the youngest store older
  /// than `load_seq` whose quantized address matches decides -- issued
  /// means the load may issue and forwards, un-issued blocks the load, no
  /// match means the load may issue from the cache.  Scans stores only,
  /// youngest first, so the first hit decides.
  bool load_may_issue(SeqNum load_seq, u64 line_addr, bool* forwarded) const {
    *forwarded = false;
    if (load_seq <= head_seq_) return true;
    const u32 cap = cap_mask_ + 1;
    const u32 head_slot = slot_of(head_seq_);
    const u32 older = static_cast<u32>(load_seq - head_seq_);  // ring length to scan
    const u32 end = head_slot + older;
    // Descending scan: the wrapped segment [0, end-cap) is youngest.
    if (end > cap) {
      const int d = youngest_matching_store(0, end - cap, line_addr);
      if (d >= 0) {
        *forwarded = d > 0;
        return d > 0;
      }
    }
    const int d = youngest_matching_store(head_slot, end < cap ? end : cap, line_addr);
    if (d >= 0) {
      *forwarded = d > 0;
      return d > 0;
    }
    return true;
  }

  /// Policy filter masks for for_each_in_order (TEP predicted-faulty, and
  /// predicted-faulty-and-critical).
  [[nodiscard]] const u64* predf_mask() const { return predf_; }
  [[nodiscard]] const u64* crit_mask() const { return crit_; }

  /// The hardware ABS order key: 6-bit timestamp assigned at dispatch.
  /// Age order is recovered by comparing wrapped distances from the head's
  /// timestamp (tests/test_sched_kernel.cpp pins wraparound behaviour).
  [[nodiscard]] u8 abs_timestamp(u32 slot) const { return abs6_[slot]; }
  [[nodiscard]] static u8 abs_distance(u8 ts, u8 head_ts) {
    return static_cast<u8>((ts - head_ts) & 63);
  }

  /// Serializes occupancy, every live slot (cold record + hot mirrors), all
  /// status bitmask words, and the per-register waiter masks.  The waiter
  /// masks are copied verbatim (not re-derived): they legitimately carry
  /// stale bits from recycled slots, and bit-identical continuation requires
  /// preserving them exactly.
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

 private:
  static void set_or_clear(u64* mask, u32 w, u64 bit, bool on) {
    if (on) {
      mask[w] |= bit;
    } else {
      mask[w] &= ~bit;
    }
  }

  void clear_slot_bits(u32 slot) {
    const u64 nbit = ~(u64{1} << (slot & 63));
    const u32 w = slot >> 6;
    waiting_[w] &= nbit;
    ready_[w] &= nbit;
    issued_[w] &= nbit;
    predf_[w] &= nbit;
    crit_[w] &= nbit;
    memop_[w] &= nbit;
    store_[w] &= nbit;
  }

  template <typename F>
  bool visit_range(const u64* cand, const u64* filter, bool invert, u32 begin, u32 end,
                   F&& f) const {
    for (u32 w = begin >> 6; w <= (end - 1) >> 6 && begin < end; ++w) {
      u64 bits = cand[w];
      if (filter != nullptr) bits &= invert ? ~filter[w] : filter[w];
      // Trim to [begin, end).
      if ((w << 6) < begin) bits &= ~0ULL << (begin & 63);
      if (end < ((w + 1) << 6)) bits &= (u64{1} << (end & 63)) - 1;
      while (bits != 0) {
        const u32 slot = (w << 6) + static_cast<u32>(std::countr_zero(bits));
        bits &= bits - 1;
        if (!f(slot)) return false;
      }
    }
    return true;
  }

  /// Youngest matching store in ring slots [begin, end), descending scan.
  /// Returns -1 for no match, 0 un-issued, 1 issued.
  int youngest_matching_store(u32 begin, u32 end, u64 line_addr) const {
    if (begin >= end) return -1;
    for (u32 w = (end - 1) >> 6;; --w) {
      u64 bits = store_[w];
      if ((w << 6) < begin) bits &= ~0ULL << (begin & 63);
      if (end < ((w + 1) << 6)) bits &= (u64{1} << (end & 63)) - 1;
      while (bits != 0) {
        const u32 slot = (w << 6) + (63 - static_cast<u32>(std::countl_zero(bits)));
        bits &= ~(u64{1} << (slot & 63));
        if (addrq_[slot] == line_addr) {
          return (issued_[slot >> 6] >> (slot & 63)) & 1 ? 1 : 0;
        }
      }
      if (w == begin >> 6) break;
    }
    return -1;
  }

  // Cold records (whole-struct slots, assigned at dispatch).
  InstState* cold_ = nullptr;
  // Hot parallel arrays.
  i32* src1_ = nullptr;
  i32* src2_ = nullptr;
  u64* addrq_ = nullptr;  ///< mem_addr & ~7 (the LSQ match key)
  u8* pending_ = nullptr;
  u8* abs6_ = nullptr;
  // Hot bitmasks (one bit per slot).
  u64* waiting_ = nullptr;  ///< in the issue queue, not yet issued
  u64* ready_ = nullptr;    ///< all source operands ready
  u64* issued_ = nullptr;
  u64* predf_ = nullptr;    ///< TEP predicted faulty
  u64* crit_ = nullptr;     ///< predicted faulty AND predicted critical
  u64* memop_ = nullptr;
  u64* store_ = nullptr;
  // Per-physical-register waiter masks (one words_-long row per register,
  // one array per source port), so a broadcast touches only its consumers.
  u64* waiters1_ = nullptr;
  u64* waiters2_ = nullptr;

  SeqNum head_seq_ = 0;
  u32 size_ = 0;
  u32 cap_mask_ = 0;
  u32 words_ = 0;
  u32 num_phys_ = 0;
};

}  // namespace vasim::cpu

#endif  // VASIM_CPU_SCHED_KERNEL_HPP
