// Set-associative caches and the two-level hierarchy of Section 4.2.
#ifndef VASIM_CPU_CACHE_HPP
#define VASIM_CPU_CACHE_HPP

#include <vector>

#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/cpu/config.hpp"
#include "src/obs/registry.hpp"
#include "src/snap/io.hpp"

namespace vasim::cpu {

/// One level of tag-only set-associative cache with true-LRU replacement.
///
/// Two parallel arrays, `ways` entries per set: the tag of each line and its
/// recency rank within the set (0 = most recently used, kEmpty = never
/// filled).  The filled lines of a set hold the ranks 0..k-1, so the LRU line
/// of a full set has rank ways-1.  An empty set fills ways 1, 2, ...,
/// ways-1 and then way 0.  Set index and tag are a shift and a mask of the
/// address.
class Cache {
 public:
  /// `name` labels the geometry errors ("l2.line_bytes ...").  With a
  /// registry, hit/miss live in `reg` under cache.<name>.hits /
  /// cache.<name>.misses, so a pipeline snapshot exports them with every
  /// other counter.
  explicit Cache(const CacheConfig& cfg, obs::Registry* reg = nullptr,
                 const char* name = "cache");

  /// Looks up `addr`; on miss, fills the line (evicting LRU).  Returns hit.
  bool access(Addr addr);

  /// Lookup without fill (used by tests and warmup probes).
  [[nodiscard]] bool contains(Addr addr) const;

  /// Serializes the tag and rank arrays (+ the standalone hit/miss
  /// fallbacks; registry-backed counters are snapshotted with the registry).
  void save_state(snap::Writer& w) const;
  /// Restores into a cache built from the same CacheConfig; throws on a
  /// geometry mismatch or a rank out of range.
  void restore_state(snap::Reader& r);

  [[nodiscard]] const CacheConfig& config() const { return cfg_; }
  [[nodiscard]] u64 hits() const { return hits_c_.valid() ? hits_c_.value() : hits_; }
  [[nodiscard]] u64 misses() const { return misses_c_.valid() ? misses_c_.value() : misses_; }
  [[nodiscard]] int num_sets() const { return static_cast<int>(set_mask_ + 1); }

 private:
  static constexpr u8 kEmpty = 0xFF;

  /// Way of the set at `base` that holds `tag`, or -1 when none does.
  [[nodiscard]] int find(std::size_t base, Addr tag) const;

  CacheConfig cfg_;
  std::size_t ways_ = 0;
  unsigned line_shift_ = 0;  ///< log2(line_bytes)
  unsigned tag_shift_ = 0;   ///< log2(line_bytes * sets)
  u64 set_mask_ = 0;         ///< sets - 1
  std::vector<Addr> tags_;  // sets x ways
  std::vector<u8> ranks_;   // sets x ways
  u64 hits_ = 0;    ///< standalone fallback storage
  u64 misses_ = 0;
  obs::Counter hits_c_, misses_c_;  ///< registry-backed when constructed with one
};

/// Split L1 + unified L2 + flat memory latency.
class MemoryHierarchy {
 public:
  /// With a registry the cache.* counters live in it (the pipeline snapshot
  /// exports them -- do NOT also call export_stats on the same StatSet, it
  /// would double-count); without one they are plain members and
  /// export_stats is the way out.
  explicit MemoryHierarchy(const CoreConfig& cfg, obs::Registry* reg = nullptr);

  /// Latency of a demand load at `addr` (includes the L1 access cycle).
  Cycle load_latency(Addr addr);
  /// Latency of an instruction fetch at `pc`.
  Cycle ifetch_latency(Addr pc);
  /// Commits a store (write-allocate, no pipeline latency modeled).
  void store_commit(Addr addr);

  [[nodiscard]] const Cache& l1i() const { return l1i_; }
  [[nodiscard]] const Cache& l1d() const { return l1d_; }
  [[nodiscard]] const Cache& l2() const { return l2_; }

  /// Export hit/miss counters into `stats` under the given prefix.
  /// Standalone (registry-less) hierarchies only; registry-backed ones
  /// already export these names through the registry.
  void export_stats(StatSet& stats) const;

  /// Serializes all three cache levels and the prefetch fallback counter.
  void save_state(snap::Writer& w) const;
  void restore_state(snap::Reader& r);

  [[nodiscard]] u64 prefetches() const {
    return prefetches_c_.valid() ? prefetches_c_.value() : prefetches_;
  }

 private:
  Cycle miss_path(Addr addr, Cache& l1);
  void count_prefetch();

  Cache l1i_;
  Cache l1d_;
  Cache l2_;
  Cycle mem_latency_;
  bool next_line_prefetch_;
  u64 prefetches_ = 0;  ///< standalone fallback storage
  obs::Counter prefetches_c_;
};

}  // namespace vasim::cpu

#endif  // VASIM_CPU_CACHE_HPP
