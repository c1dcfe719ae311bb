// Simulator self-profiler: where does the simulator's own wall-time go?
//
// Scoped steady-clock timers attribute host nanoseconds to the pipeline's
// work phases (fetch/dispatch/select/execute/commit plus the fault-check and
// event-wheel sub-phases).  Every build carries the scopes; each costs one
// pointer null-check until a Profiler is attached, and results are bitwise
// unchanged either way, since the profiler only reads the host clock, never
// simulator state.
//
// One Profiler per pipeline (single-threaded, like the Registry); sweep
// workers each profile their own jobs and merge into a shared ProfilerHub,
// which keys totals by host thread so a sweep reports per-worker and
// whole-run attribution.
#ifndef VASIM_OBS_PROFILER_HPP
#define VASIM_OBS_PROFILER_HPP

#include <array>
#include <chrono>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/types.hpp"

namespace vasim::obs {

/// Always true: every build carries the profiler scopes.  Kept because
/// benchmark reports record it.
inline constexpr bool kProfHooksEnabled = true;

/// Simulator work phases.  kFaultCheck is a sub-phase of kSelect (the
/// fault-oracle query inside issue) and kEventWheel a sub-phase of kExecute
/// (the wheel pop inside event processing); the five others partition the
/// cycle loop.
enum class ProfPhase : int {
  kFetch = 0,
  kDispatch = 1,
  kSelect = 2,
  kExecute = 3,
  kCommit = 4,
  kFaultCheck = 5,
  kEventWheel = 6,
};

inline constexpr int kNumProfPhases = 7;

/// The five top-level phases come first so [0, kNumTopLevelPhases) sums to
/// the whole instrumented cycle loop without double counting sub-phases.
inline constexpr int kNumTopLevelPhases = 5;

constexpr std::string_view to_string(ProfPhase p) {
  constexpr std::array<std::string_view, kNumProfPhases> names = {
      "fetch", "dispatch", "select", "execute", "commit", "fault-check", "event-wheel"};
  return names[static_cast<int>(p)];
}

/// Per-pipeline wall-time accumulator.  Not thread-safe; merge snapshots
/// into a ProfilerHub for cross-thread aggregation.
class Profiler {
 public:
  using Clock = std::chrono::steady_clock;

  struct Snapshot {
    std::array<u64, kNumProfPhases> ns{};
    std::array<u64, kNumProfPhases> calls{};

    /// Sum over the five top-level phases (sub-phases excluded).
    [[nodiscard]] u64 total_ns() const {
      u64 t = 0;
      for (int i = 0; i < kNumTopLevelPhases; ++i) t += ns[static_cast<std::size_t>(i)];
      return t;
    }
    void merge(const Snapshot& o) {
      for (int i = 0; i < kNumProfPhases; ++i) {
        ns[static_cast<std::size_t>(i)] += o.ns[static_cast<std::size_t>(i)];
        calls[static_cast<std::size_t>(i)] += o.calls[static_cast<std::size_t>(i)];
      }
    }
  };

  void add(ProfPhase p, u64 ns) {
    snap_.ns[static_cast<std::size_t>(p)] += ns;
    ++snap_.calls[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] const Snapshot& snapshot() const { return snap_; }
  void reset() { snap_ = Snapshot{}; }

  /// RAII phase timer.  A null profiler makes the scope free of clock reads.
  class Scope {
   public:
    Scope(Profiler* p, ProfPhase phase)
        : p_(p), phase_(phase), t0_(p != nullptr ? Clock::now() : Clock::time_point{}) {}
    ~Scope() {
      if (p_ != nullptr) {
        p_->add(phase_, static_cast<u64>(
                            std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - t0_)
                                .count()));
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler* p_;
    ProfPhase phase_;
    Clock::time_point t0_;
  };

 private:
  Snapshot snap_;
};

/// Thread-safe aggregation point for a sweep: each worker merges its jobs'
/// snapshots; the hub keys them by host thread and reports per-worker and
/// total attribution.
class ProfilerHub {
 public:
  struct WorkerReport {
    std::size_t worker = 0;  ///< dense id in first-merge order
    Profiler::Snapshot snap;
  };

  void merge(const Profiler::Snapshot& s);
  [[nodiscard]] std::vector<WorkerReport> per_worker() const;
  [[nodiscard]] Profiler::Snapshot total() const;

 private:
  mutable std::mutex mu_;
  std::map<std::thread::id, std::size_t> worker_ids_;
  std::vector<Profiler::Snapshot> snaps_;
};

}  // namespace vasim::obs

#endif  // VASIM_OBS_PROFILER_HPP
