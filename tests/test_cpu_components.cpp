// Unit tests for CPU components: caches, branch predictor, FU pool.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/cpu/branch_pred.hpp"
#include "src/cpu/cache.hpp"
#include "src/cpu/fu_pool.hpp"

namespace vasim::cpu {
namespace {

TEST(Cache, GeometryValidation) {
  EXPECT_THROW(Cache(CacheConfig{100, 4, 64, 1}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{32 * 1024, 0, 64, 1}), std::invalid_argument);
  const Cache c(CacheConfig{32 * 1024, 4, 64, 1});
  EXPECT_EQ(c.num_sets(), 128);
}

TEST(Cache, HitAfterFill) {
  Cache c(CacheConfig{1024, 2, 64, 1});
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1008));  // same line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEviction) {
  // 1024B, 2-way, 64B lines -> 8 sets.  Three lines mapping to set 0:
  Cache c(CacheConfig{1024, 2, 64, 1});
  const Addr a = 0 * 512, b = 1 * 512, d = 2 * 512;
  c.access(a);
  c.access(b);
  c.access(a);     // a most recent
  c.access(d);     // evicts b (LRU)
  EXPECT_TRUE(c.contains(a));
  EXPECT_FALSE(c.contains(b));
  EXPECT_TRUE(c.contains(d));
}

TEST(Cache, ContainsDoesNotFill) {
  Cache c(CacheConfig{1024, 2, 64, 1});
  EXPECT_FALSE(c.contains(0x40));
  EXPECT_FALSE(c.contains(0x40));
  EXPECT_EQ(c.misses(), 0u);
}

// The cache model `Cache` replaced: one record per line with a valid flag
// and a 64-bit use stamp.  Kept as the reference the rank-based cache must
// match access for access.
class StampLruReference {
 public:
  explicit StampLruReference(const CacheConfig& cfg)
      : line_bytes_(static_cast<u64>(cfg.line_bytes)),
        ways_(static_cast<std::size_t>(cfg.ways)),
        sets_(cfg.size_bytes / line_bytes_ / ways_),
        lines_(static_cast<std::size_t>(sets_) * ways_) {}

  bool access(Addr addr) {
    const std::size_t base = set_index(addr) * ways_;
    const Addr tag = tag_of(addr);
    ++use_counter_;
    for (std::size_t w = 0; w < ways_; ++w) {
      Line& line = lines_[base + w];
      if (line.valid && line.tag == tag) {
        line.lru = use_counter_;
        ++hits;
        return true;
      }
    }
    std::size_t victim = base;
    for (std::size_t w = 1; w < ways_; ++w) {
      const std::size_t i = base + w;
      if (!lines_[i].valid) {
        victim = i;
        break;
      }
      if (lines_[i].lru < lines_[victim].lru) victim = i;
    }
    lines_[victim] = Line{tag, true, use_counter_};
    ++misses;
    return false;
  }

  [[nodiscard]] bool contains(Addr addr) const {
    const std::size_t base = set_index(addr) * ways_;
    for (std::size_t w = 0; w < ways_; ++w) {
      const Line& line = lines_[base + w];
      if (line.valid && line.tag == tag_of(addr)) return true;
    }
    return false;
  }

  /// The payload `Cache::save_state` must write for this state: the tags,
  /// then each line's recency rank within its set (0 = most recent, 0xFF =
  /// never filled), then the hit and miss counters.  Equal payloads mean
  /// equal placement, so this also pins the order in which a set fills.
  [[nodiscard]] std::vector<unsigned char> expected_state() const {
    snap::Writer w;
    w.put_u64(lines_.size());
    for (const Line& line : lines_) w.put_u64(line.tag);
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const std::size_t base = i - i % ways_;
      u8 rank = 0xFF;
      if (lines_[i].valid) {
        rank = 0;
        for (std::size_t w2 = 0; w2 < ways_; ++w2) {
          const Line& other = lines_[base + w2];
          if (other.valid && other.lru > lines_[i].lru) ++rank;
        }
      }
      w.put_u8(rank);
    }
    w.put_u64(hits);
    w.put_u64(misses);
    return w.take();
  }

  u64 hits = 0;
  u64 misses = 0;

 private:
  struct Line {
    Addr tag = 0;
    bool valid = false;
    u64 lru = 0;
  };
  [[nodiscard]] std::size_t set_index(Addr addr) const {
    return static_cast<std::size_t>((addr / line_bytes_) % sets_);
  }
  [[nodiscard]] Addr tag_of(Addr addr) const { return addr / line_bytes_ / sets_; }

  u64 line_bytes_;
  std::size_t ways_;
  u64 sets_;
  std::vector<Line> lines_;
  u64 use_counter_ = 0;
};

TEST(Cache, MatchesStampLruReference) {
  // 1-, 2-, 4- and 16-way geometries, two of them a single set.
  const std::vector<CacheConfig> geometries = {
      {1024, 1, 64, 1}, {1024, 2, 64, 1}, {4096, 4, 32, 1},
      {128, 4, 32, 1},  {16 * 1024, 16, 64, 1}, {1024, 16, 64, 1}};
  for (const CacheConfig& g : geometries) {
    for (const u64 seed : {1ull, 2ull, 3ull}) {
      SCOPED_TRACE("size " + std::to_string(g.size_bytes) + ", " + std::to_string(g.ways) +
                   " ways, seed " + std::to_string(seed));
      StampLruReference ref(g);
      Cache cache(g);
      // Draw from about three times the capacity in lines, so sets fill,
      // hit and evict; one access in eight goes far away.
      const u32 span = static_cast<u32>(g.size_bytes / static_cast<u64>(g.line_bytes) * 3);
      Pcg32 rng(seed);
      const auto line_bytes = static_cast<u32>(g.line_bytes);
      const auto next_addr = [&] {
        const Addr near = static_cast<Addr>(rng.next_below(span)) * line_bytes +
                          rng.next_below(line_bytes);
        return rng.next_below(8) == 0 ? rng.next_u64() : near;
      };
      constexpr int kAccesses = 20'000;
      for (int i = 0; i < kAccesses; ++i) {
        if (i == kAccesses / 2) {
          // A save/restore in mid-stream continues identically.
          snap::Writer w;
          cache.save_state(w);
          ASSERT_EQ(w.data(), ref.expected_state());
          Cache restored(g);
          snap::Reader r(w.data());
          restored.restore_state(r);
          ASSERT_TRUE(r.done());
          cache = restored;
        }
        const Addr a = next_addr();
        ASSERT_EQ(cache.access(a), ref.access(a)) << "access " << i;
        const Addr probe = next_addr();
        ASSERT_EQ(cache.contains(probe), ref.contains(probe)) << "probe " << i;
      }
      EXPECT_EQ(cache.hits(), ref.hits);
      EXPECT_EQ(cache.misses(), ref.misses);
      snap::Writer end;
      cache.save_state(end);
      EXPECT_EQ(end.data(), ref.expected_state());
      EXPECT_GT(ref.hits, 0u);
      EXPECT_GT(ref.misses, 0u);
    }
  }
}

TEST(Cache, RestoreRejectsRankOutOfRange) {
  const CacheConfig g{1024, 2, 64, 1};
  Cache c(g);
  c.access(0x40);
  snap::Writer w;
  c.save_state(w);
  std::vector<unsigned char> bytes = w.take();
  // Payload: u64 line count, 16 u64 tags, then one rank byte per line.
  bytes[8 + 16 * 8] = 2;  // a 2-way set has ranks 0 and 1 only
  Cache back(g);
  snap::Reader r(bytes);
  EXPECT_THROW(back.restore_state(r), snap::SnapshotError);
}

TEST(MemoryHierarchy, LatenciesCompose) {
  CoreConfig cfg;
  MemoryHierarchy mh(cfg);
  // Cold: L1 miss + L2 miss -> 1 + 25 + 240.
  EXPECT_EQ(mh.load_latency(0x100000), 1u + 25u + 240u);
  // Now L1-resident.
  EXPECT_EQ(mh.load_latency(0x100000), 1u);
  // Evict from L1 only (touch many lines in the same set), then L2 hit.
  for (int i = 1; i <= 8; ++i) {
    mh.load_latency(0x100000 + static_cast<Addr>(i) * 32 * 1024 / 4);
  }
  const Cycle lat = mh.load_latency(0x100000);
  EXPECT_TRUE(lat == 1 || lat == 26) << lat;
}

TEST(MemoryHierarchy, IfetchSeparateFromData) {
  CoreConfig cfg;
  MemoryHierarchy mh(cfg);
  mh.load_latency(0x5000);
  // Same address on the I-side still misses L1I (but hits the shared L2).
  EXPECT_EQ(mh.ifetch_latency(0x5000), 1u + 25u);
}

TEST(MemoryHierarchy, StoreCommitWarmsCaches) {
  CoreConfig cfg;
  MemoryHierarchy mh(cfg);
  mh.store_commit(0x9000);
  EXPECT_EQ(mh.load_latency(0x9000), 1u);
}

TEST(MemoryHierarchy, NextLinePrefetchWarmsL2) {
  CoreConfig cfg;
  cfg.l2_next_line_prefetch = true;
  MemoryHierarchy mh(cfg);
  // Demand miss at addr fills L2 with addr AND addr+64.
  EXPECT_EQ(mh.load_latency(0x100000), 1u + 25u + 240u);
  EXPECT_EQ(mh.load_latency(0x100040), 1u + 25u) << "next line prefetched into L2";
  EXPECT_EQ(mh.prefetches(), 2u);  // each miss prefetched one line
}

TEST(MemoryHierarchy, PrefetchOffByDefault) {
  CoreConfig cfg;
  MemoryHierarchy mh(cfg);
  mh.load_latency(0x100000);
  EXPECT_EQ(mh.load_latency(0x100040), 1u + 25u + 240u);
  EXPECT_EQ(mh.prefetches(), 0u);
}

TEST(MemoryHierarchy, ExportStats) {
  CoreConfig cfg;
  MemoryHierarchy mh(cfg);
  mh.load_latency(0x100);
  StatSet s;
  mh.export_stats(s);
  EXPECT_EQ(s.count("cache.l1d.misses"), 1u);
  EXPECT_EQ(s.count("cache.l2.misses"), 1u);
}

TEST(BranchPredictor, LearnsFixedDirection) {
  CoreConfig cfg;
  BranchPredictor bp(cfg);
  const Pc pc = 0x4000;
  // Enough updates to saturate the history register so the predict-time
  // index has been trained.
  for (int i = 0; i < 40; ++i) bp.update(pc, true, 0x5000);
  const BranchPrediction p = bp.predict(pc);
  EXPECT_TRUE(p.taken);
  EXPECT_TRUE(p.target_known);
  EXPECT_EQ(p.target, 0x5000u);
}

TEST(BranchPredictor, LearnsNotTaken) {
  CoreConfig cfg;
  BranchPredictor bp(cfg);
  for (int i = 0; i < 40; ++i) bp.update(0x4000, false, 0);
  EXPECT_FALSE(bp.predict(0x4000).taken);
}

TEST(BranchPredictor, HistoryShiftsOnlyOnUpdates) {
  CoreConfig cfg;
  BranchPredictor bp(cfg);
  const u64 h0 = bp.history();
  (void)bp.predict(0x100);
  EXPECT_EQ(bp.history(), h0);
  bp.update(0x100, true, 0x200);
  EXPECT_NE(bp.history(), h0);
}

TEST(BranchPredictor, BtbMissForUnseenTarget) {
  CoreConfig cfg;
  BranchPredictor bp(cfg);
  EXPECT_FALSE(bp.predict(0xdead0).target_known);
}

TEST(FuPool, KindsMatchConfig) {
  CoreConfig cfg;
  FuPool pool(cfg);
  EXPECT_EQ(pool.unit_count(),
            cfg.simple_alus + cfg.complex_alus + cfg.branch_units + cfg.load_ports +
                cfg.store_ports);
  EXPECT_EQ(fu_kind_for(isa::OpClass::kIntAlu), FuKind::kSimpleAlu);
  EXPECT_EQ(fu_kind_for(isa::OpClass::kIntMul), FuKind::kComplexAlu);
  EXPECT_EQ(fu_kind_for(isa::OpClass::kIntDiv), FuKind::kComplexAlu);
  EXPECT_EQ(fu_kind_for(isa::OpClass::kLoad), FuKind::kLoadPort);
  EXPECT_EQ(fu_kind_for(isa::OpClass::kStore), FuKind::kStorePort);
  EXPECT_EQ(fu_kind_for(isa::OpClass::kBranch), FuKind::kBranch);
}

TEST(FuPool, PipelinedUnitsAcceptEveryCycle) {
  CoreConfig cfg;
  cfg.simple_alus = 1;
  FuPool pool(cfg);
  EXPECT_GE(pool.allocate(isa::OpClass::kIntAlu, 10, 1, false), 0);
  EXPECT_LT(pool.allocate(isa::OpClass::kIntAlu, 10, 1, false), 0);  // same cycle: busy
  EXPECT_GE(pool.allocate(isa::OpClass::kIntAlu, 11, 1, false), 0);  // next cycle: free
}

TEST(FuPool, UnpipelinedDivideOccupiesFully) {
  CoreConfig cfg;
  cfg.complex_alus = 1;
  FuPool pool(cfg);
  EXPECT_GE(pool.allocate(isa::OpClass::kIntDiv, 0, 12, false), 0);
  EXPECT_FALSE(pool.can_accept(isa::OpClass::kIntMul, 5));
  EXPECT_FALSE(pool.can_accept(isa::OpClass::kIntDiv, 11));
  EXPECT_TRUE(pool.can_accept(isa::OpClass::kIntDiv, 12));
}

TEST(FuPool, VteExtraOccupyBlocksOneMoreCycle) {
  CoreConfig cfg;
  cfg.simple_alus = 1;
  FuPool pool(cfg);
  EXPECT_GE(pool.allocate(isa::OpClass::kIntAlu, 0, 1, true), 0);  // FUSR off 1 cycle
  EXPECT_FALSE(pool.can_accept(isa::OpClass::kIntAlu, 1));
  EXPECT_TRUE(pool.can_accept(isa::OpClass::kIntAlu, 2));
}

TEST(FuPool, ShiftTimeMovesReservations) {
  CoreConfig cfg;
  cfg.simple_alus = 1;
  FuPool pool(cfg);
  (void)pool.allocate(isa::OpClass::kIntAlu, 0, 1, false);
  EXPECT_TRUE(pool.can_accept(isa::OpClass::kIntAlu, 1));
  pool.shift_time(5);
  EXPECT_FALSE(pool.can_accept(isa::OpClass::kIntAlu, 1));
  EXPECT_TRUE(pool.can_accept(isa::OpClass::kIntAlu, 6));
}

TEST(FuPool, DistinctKindsDoNotInterfere) {
  CoreConfig cfg;
  FuPool pool(cfg);
  (void)pool.allocate(isa::OpClass::kLoad, 0, 200, false);
  EXPECT_TRUE(pool.can_accept(isa::OpClass::kStore, 0));
  EXPECT_TRUE(pool.can_accept(isa::OpClass::kIntAlu, 0));
}

}  // namespace
}  // namespace vasim::cpu
