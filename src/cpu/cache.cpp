#include "src/cpu/cache.hpp"

#include <bit>
#include <string>

namespace vasim::cpu {

Cache::Cache(const CacheConfig& cfg, obs::Registry* reg, const char* name) : cfg_(cfg) {
  validate_cache_config(cfg, name);
  const u64 line_bytes = static_cast<u64>(cfg.line_bytes);
  const u64 sets = cfg.size_bytes / line_bytes / static_cast<u64>(cfg.ways);
  ways_ = static_cast<std::size_t>(cfg.ways);
  line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
  tag_shift_ = line_shift_ + static_cast<unsigned>(std::countr_zero(sets));
  set_mask_ = sets - 1;
  tags_.resize(static_cast<std::size_t>(sets) * ways_);
  ranks_.assign(tags_.size(), kEmpty);
  if (reg != nullptr) {
    const std::string prefix = "cache." + std::string(name);
    hits_c_ = reg->counter(prefix + ".hits");
    misses_c_ = reg->counter(prefix + ".misses");
  }
}

namespace {

/// Makes `way` the most recently used line of the set whose ranks start at
/// `ranks`: every line more recent than `way` ages by one (a fill, rank
/// kEmpty, ages every filled line).  Local pointers keep the compiler from
/// reloading the arrays after each byte store.
void promote(u8* ranks, std::size_t ways, std::size_t way) {
  const u8 rank = ranks[way];
  if (rank == 0) return;
  for (std::size_t w = 0; w < ways; ++w) ranks[w] += static_cast<u8>(ranks[w] < rank);
  ranks[way] = 0;
}

}  // namespace

int Cache::find(std::size_t base, Addr tag) const {
  const Addr* tags = tags_.data() + base;
  const u8* ranks = ranks_.data() + base;
  for (std::size_t w = 0; w < ways_; ++w) {
    if (tags[w] == tag && ranks[w] != kEmpty) return static_cast<int>(w);
  }
  return -1;
}

bool Cache::access(Addr addr) {
  const std::size_t base = static_cast<std::size_t>((addr >> line_shift_) & set_mask_) * ways_;
  const Addr tag = addr >> tag_shift_;
  u8* ranks = ranks_.data() + base;
  const int hit = find(base, tag);
  if (hit >= 0) {
    promote(ranks, ways_, static_cast<std::size_t>(hit));
    if (hits_c_.valid()) hits_c_.inc(); else ++hits_;
    return true;
  }
  // Miss: the first empty way among 1..ways-1, else way 0 while it is
  // empty, else the LRU way (the highest rank).
  std::size_t victim = 0;
  for (std::size_t w = 1; w < ways_; ++w) {
    if (ranks[w] == kEmpty) {
      victim = w;
      break;
    }
    if (ranks[w] > ranks[victim]) victim = w;
  }
  tags_[base + victim] = tag;
  promote(ranks, ways_, victim);
  if (misses_c_.valid()) misses_c_.inc(); else ++misses_;
  return false;
}

bool Cache::contains(Addr addr) const {
  const std::size_t base = static_cast<std::size_t>((addr >> line_shift_) & set_mask_) * ways_;
  return find(base, addr >> tag_shift_) >= 0;
}

void Cache::save_state(snap::Writer& w) const {
  w.put_u64(tags_.size());
  for (const Addr tag : tags_) w.put_u64(tag);
  w.put_bytes(ranks_.data(), ranks_.size());
  w.put_u64(hits_);
  w.put_u64(misses_);
}

void Cache::restore_state(snap::Reader& r) {
  const u64 n = r.get_u64();
  if (n != tags_.size()) throw snap::SnapshotError("cache geometry mismatch");
  for (Addr& tag : tags_) tag = r.get_u64();
  r.get_bytes(ranks_.data(), ranks_.size());
  for (const u8 rank : ranks_) {
    if (rank != kEmpty && rank >= ways_) throw snap::SnapshotError("cache rank out of range");
  }
  hits_ = r.get_u64();
  misses_ = r.get_u64();
}

MemoryHierarchy::MemoryHierarchy(const CoreConfig& cfg, obs::Registry* reg)
    : l1i_(cfg.l1i, reg, "l1i"), l1d_(cfg.l1d, reg, "l1d"), l2_(cfg.l2, reg, "l2"),
      mem_latency_(cfg.memory_latency), next_line_prefetch_(cfg.l2_next_line_prefetch) {
  if (reg != nullptr) prefetches_c_ = reg->counter("cache.l2.prefetches");
}

void MemoryHierarchy::count_prefetch() {
  if (prefetches_c_.valid()) prefetches_c_.inc(); else ++prefetches_;
}

Cycle MemoryHierarchy::miss_path(Addr addr, Cache& l1) {
  Cycle lat = l1.config().latency;
  if (l1.access(addr)) return lat;
  lat += l2_.config().latency;
  if (l2_.access(addr)) return lat;
  return lat + mem_latency_;
}

Cycle MemoryHierarchy::load_latency(Addr addr) {
  const Cycle lat = miss_path(addr, l1d_);
  if (next_line_prefetch_ && lat > l1d_.config().latency) {
    // Demand miss: pull the next line into L2 (no latency modeled for the
    // prefetch itself; its benefit is the later L2 hit).
    const Addr next = addr + static_cast<Addr>(l1d_.config().line_bytes);
    if (!l2_.contains(next)) {
      l2_.access(next);
      count_prefetch();
    }
  }
  return lat;
}

Cycle MemoryHierarchy::ifetch_latency(Addr pc) { return miss_path(pc, l1i_); }

void MemoryHierarchy::store_commit(Addr addr) {
  // Write-allocate, write-back approximation: touch L1D (and L2 on miss).
  if (!l1d_.access(addr)) l2_.access(addr);
}

void MemoryHierarchy::export_stats(StatSet& stats) const {
  stats.inc("cache.l1i.hits", l1i_.hits());
  stats.inc("cache.l1i.misses", l1i_.misses());
  stats.inc("cache.l1d.hits", l1d_.hits());
  stats.inc("cache.l1d.misses", l1d_.misses());
  stats.inc("cache.l2.hits", l2_.hits());
  stats.inc("cache.l2.misses", l2_.misses());
  stats.inc("cache.l2.prefetches", prefetches_);
}

void MemoryHierarchy::save_state(snap::Writer& w) const {
  l1i_.save_state(w);
  l1d_.save_state(w);
  l2_.save_state(w);
  w.put_u64(prefetches_);
}

void MemoryHierarchy::restore_state(snap::Reader& r) {
  l1i_.restore_state(r);
  l1d_.restore_state(r);
  l2_.restore_state(r);
  prefetches_ = r.get_u64();
}

}  // namespace vasim::cpu
