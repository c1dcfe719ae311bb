// Unit tests for src/common: rng, stats, table, env.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "src/common/env.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/common/table.hpp"

namespace vasim {
namespace {

TEST(HashMix, DeterministicAndDispersive) {
  EXPECT_EQ(hash_mix(42), hash_mix(42));
  EXPECT_NE(hash_mix(42), hash_mix(43));
  // Nearby inputs must land far apart (avalanche-ish).
  std::set<u64> seen;
  for (u64 i = 0; i < 1000; ++i) seen.insert(hash_mix(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(HashMix, UnitIntervalInRange) {
  for (u64 i = 0; i < 10000; ++i) {
    const double u = hash_to_unit(hash_mix(i));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(HashMix, UnitIntervalRoughlyUniform) {
  int buckets[10] = {};
  const int n = 100000;
  for (u64 i = 0; i < n; ++i) {
    ++buckets[static_cast<int>(hash_to_unit(hash_mix(i)) * 10)];
  }
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(buckets[b], n / 10, n / 100) << "bucket " << b;
  }
}

TEST(HashMix, GaussianMoments) {
  double sum = 0, sumsq = 0;
  const int n = 200000;
  for (u64 i = 0; i < n; ++i) {
    const double g = hash_to_gaussian(hash_mix(i ^ 0xabcdULL));
    sum += g;
    sumsq += g * g;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Pcg32, DeterministicStreams) {
  Pcg32 a(1, 2), b(1, 2), c(1, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
  bool differs = false;
  Pcg32 a2(1, 2);
  for (int i = 0; i < 100; ++i) differs |= (a2.next_u32() != c.next_u32());
  EXPECT_TRUE(differs);
}

TEST(Pcg32, NextBelowUnbiasedEdges) {
  Pcg32 r(7);
  EXPECT_EQ(r.next_below(0), 0u);
  EXPECT_EQ(r.next_below(1), 0u);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(10), 10u);
}

TEST(Pcg32, DoublesInUnitInterval) {
  Pcg32 r(99);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Pcg32, GaussianMoments) {
  Pcg32 r(1234);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) s.add(r.next_gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Pcg32, BernoulliRate) {
  Pcg32 r(5);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.next_bool(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(StatSet, CountersAndScalars) {
  StatSet s;
  EXPECT_EQ(s.count("x"), 0u);
  s.inc("x");
  s.inc("x", 4);
  EXPECT_EQ(s.count("x"), 5u);
  s.set("pi", 3.14);
  EXPECT_DOUBLE_EQ(s.scalar("pi"), 3.14);
  EXPECT_DOUBLE_EQ(s.scalar("absent"), 0.0);
}

TEST(StatSet, DiffSubtractsCounters) {
  StatSet a, b;
  a.inc("x", 10);
  a.inc("y", 3);
  a.set("s", 2.0);
  b.inc("x", 4);
  const StatSet d = a.diff(b);
  EXPECT_EQ(d.count("x"), 6u);
  EXPECT_EQ(d.count("y"), 3u);
  EXPECT_DOUBLE_EQ(d.scalar("s"), 2.0);
}

TEST(StatSet, DiffClampsAtZero) {
  StatSet a, b;
  a.inc("x", 2);
  b.inc("x", 5);
  EXPECT_EQ(a.diff(b).count("x"), 0u);
}

TEST(Histogram, MeanStddevQuantile) {
  Histogram h(0, 10, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_NEAR(h.mean(), 5.0, 1e-9);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.1);
  EXPECT_NEAR(h.min(), 0.5, 1e-9);
  EXPECT_NEAR(h.max(), 9.5, 1e-9);
}

TEST(Histogram, OutOfRangeGoesToOverflowBins) {
  Histogram h(0, 10, 5);
  h.add(-5);
  h.add(100);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_NEAR(h.mean(), 47.5, 1e-9);
}

TEST(RunningStat, MatchesClosedForm) {
  RunningStat s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
  EXPECT_NEAR(s.stddev(), 29.0115, 1e-3);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 100.0);
}

TEST(TextTable, RenderAlignsColumns) {
  TextTable t({"name", "v"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "2"});
  const std::string out = t.render("title");
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, CsvRoundTrip) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(TextTable, FmtPrecision) {
  EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::fmt(2.0, 0), "2");
}

TEST(Env, FallbacksAndParsing) {
  ::unsetenv("VASIM_TEST_ENV");
  EXPECT_EQ(env_u64("VASIM_TEST_ENV", 7), 7u);
  ::setenv("VASIM_TEST_ENV", "123", 1);
  EXPECT_EQ(env_u64("VASIM_TEST_ENV", 7), 123u);
  ::setenv("VASIM_TEST_ENV", "junk", 1);
  EXPECT_EQ(env_u64("VASIM_TEST_ENV", 7), 7u);
  EXPECT_EQ(env_str("VASIM_TEST_ENV", "d"), "junk");
  // Trailing junk is rejected whole, not read as its numeric prefix.
  ::setenv("VASIM_TEST_ENV", "2k", 1);
  EXPECT_EQ(env_u64("VASIM_TEST_ENV", 7), 7u);
  ::setenv("VASIM_TEST_ENV", "4x16", 1);
  EXPECT_EQ(env_u64("VASIM_TEST_ENV", 7), 7u);
  ::unsetenv("VASIM_TEST_ENV");
}

}  // namespace
}  // namespace vasim
