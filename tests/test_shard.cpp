// Sweep sharding and the pooled sweep path: pooled-vs-sequential bitwise
// identity (fuzz-seeded grids, semantics checker attached), mixed run
// lengths, warm-start composition, the set_batch(1) pin, shard partition +
// fragment round trip + merge determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/shard.hpp"
#include "src/core/sweep.hpp"
#include "src/snap/io.hpp"
#include "src/workload/profiles.hpp"
#include "tests/fuzz_util.hpp"

namespace vasim {
namespace {

core::RunnerConfig shard_config() {
  core::RunnerConfig rc;
  rc.instructions = 2'000;
  rc.warmup = 800;
  return rc;
}

/// Field-by-field bitwise identity, including the pieces that feed
/// sweep_checksum (stats counters) and the ones that do not (trail,
/// checker_checks) -- neither pooling nor sharding may perturb them.
void expect_identical(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.vdd, b.vdd);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.fault_rate_pct, b.fault_rate_pct);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.predictor_accuracy, b.predictor_accuracy);
  EXPECT_EQ(a.energy.dynamic_nj, b.energy.dynamic_nj);
  EXPECT_EQ(a.energy.leakage_nj, b.energy.leakage_nj);
  EXPECT_EQ(a.energy.edp, b.energy.edp);
  EXPECT_EQ(a.stats.counters(), b.stats.counters());
  EXPECT_EQ(a.commit_trail, b.commit_trail);
  EXPECT_EQ(a.checker_checks, b.checker_checks);
}

// ---- pooled sweep path ------------------------------------------------------
//
// The BatchLockstep cases once compared a lockstep batch engine with single
// runs.  The engine is gone; each case keeps the property it pinned on the
// sweep path that remains: a pool of workers, one job per task.

TEST(BatchLockstep, ChecksumIdenticalAcrossWidthsOverFuzzSeeds) {
  const char* benches[] = {"bzip2", "gcc", "gobmk", "sjeng", "mcf", "tonto"};
  const char* schemes[] = {"fault-free", "razor", "ep", "abs", "ffs", "cds"};
  const double vdds[] = {0.97, 1.04};

  for (const u64 seed : fuzzutil::seeds("batch", 21'000, 4)) {
    Pcg32 rng(seed, 0xba7cULL);
    core::RunnerConfig rc = shard_config();
    rc.check_semantics = true;  // every job validated cycle by cycle
    std::vector<core::SweepJob> jobs;
    const std::size_t n = 3 + rng.next_below(4);  // 3..6 jobs
    for (std::size_t j = 0; j < n; ++j) {
      const auto prof = workload::spec2006_profile(benches[rng.next_u32() % 6]);
      const std::string scheme_name = schemes[rng.next_u32() % 6];
      const std::optional<cpu::SchemeConfig> scheme =
          scheme_name == "fault-free" ? std::optional<cpu::SchemeConfig>{}
                                      : core::scheme_by_name(scheme_name);
      const double vdd = scheme ? vdds[rng.next_u32() % 2] : 0.97;
      jobs.push_back({prof, scheme, vdd, std::nullopt});
    }

    const core::SweepRunner single(rc, 1);
    const core::SweepRunner pooled(rc, 1 + rng.next_below(4));  // widths 1..4, seed-chosen

    const std::vector<core::RunResult> r1 = single.run_results(jobs);
    const std::vector<core::RunResult> rp = pooled.run_results(jobs);
    ASSERT_EQ(r1.size(), jobs.size()) << "seed " << seed;
    ASSERT_EQ(rp.size(), jobs.size()) << "seed " << seed;
    for (std::size_t i = 0; i < r1.size(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " job " + std::to_string(i));
      expect_identical(r1[i], rp[i]);
      EXPECT_GT(rp[i].checker_checks, 0u);  // a pass with 0 checks is blind
    }
    EXPECT_EQ(core::sweep_checksum(r1), core::sweep_checksum(rp)) << "seed " << seed;
  }
}

TEST(BatchLockstep, MidBatchRetirementCompactsWithoutPerturbingSurvivors) {
  // Heterogeneous run lengths in one pooled sweep: short jobs finish while
  // long ones are still running.  Every job must still match its solo
  // ExperimentRunner run exactly.  Lengths include warmup == 0 (a job that
  // is born measuring).
  const auto bzip2 = workload::spec2006_profile("bzip2");
  const auto gobmk = workload::spec2006_profile("gobmk");
  struct Shape {
    u64 instructions;
    u64 warmup;
  };
  const Shape shapes[] = {{500, 200}, {6'000, 800}, {1'500, 0}, {3'000, 1'200}, {700, 100}};
  std::vector<core::SweepJob> jobs;
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    core::RunnerConfig rc = shard_config();
    rc.instructions = shapes[i].instructions;
    rc.warmup = shapes[i].warmup;
    jobs.push_back({i % 2 == 0 ? bzip2 : gobmk,
                    i % 2 == 0 ? std::optional(core::scheme_by_name("razor").value())
                               : std::nullopt,
                    0.97, rc});
  }

  const core::SweepRunner pooled(shard_config(), jobs.size());
  const std::vector<core::RunResult> rp = pooled.run_results(jobs);
  ASSERT_EQ(rp.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const core::ExperimentRunner solo(*jobs[i].config);
    const core::RunResult rs = jobs[i].scheme
                                   ? solo.run(jobs[i].profile, *jobs[i].scheme, jobs[i].vdd)
                                   : solo.run_fault_free(jobs[i].profile, jobs[i].vdd);
    expect_identical(rs, rp[i]);
    EXPECT_EQ(rp[i].committed, shapes[i].instructions);
  }
}

TEST(BatchLockstep, WidthEdgesBatchWiderThanGridAndZeroClamp) {
  const auto bzip2 = workload::spec2006_profile("bzip2");
  std::vector<core::SweepJob> jobs;
  jobs.push_back({bzip2, std::nullopt, 0.97, std::nullopt});
  jobs.push_back({bzip2, core::scheme_by_name("ep"), 0.97, std::nullopt});

  const core::SweepRunner wide(shard_config(), 16);  // pool > jobs
  const core::SweepRunner narrow(shard_config(), 1);
  const std::vector<core::RunResult> rw = wide.run_results(jobs);
  const std::vector<core::RunResult> rn = narrow.run_results(jobs);
  ASSERT_EQ(rw.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) expect_identical(rw[i], rn[i]);

  // A zero width is an error now, not a value to clamp.
  core::SweepRunner sweeper(shard_config(), 1);
  EXPECT_THROW(sweeper.set_batch(0), std::invalid_argument);
}

TEST(BatchLockstep, ComposesWithWarmStartSharing) {
  // The warm-fork path: group snapshots restore into pooled jobs that
  // re-derive the measurement base exactly where a plain run would.
  std::vector<core::SweepJob> jobs;
  for (const auto& name : {"bzip2", "gobmk"}) {
    const auto prof = workload::spec2006_profile(name);
    jobs.push_back({prof, std::nullopt, 0.97, std::nullopt});
    jobs.push_back({prof, std::nullopt, 1.10, std::nullopt});
    jobs.push_back({prof, core::scheme_by_name("razor"), 0.97, std::nullopt});
  }
  const core::SweepRunner plain(shard_config(), 1);
  core::SweepRunner warm_pooled(shard_config(), 3);
  warm_pooled.set_reuse_warmup(true);

  const core::SweepReport a = plain.run(jobs);
  const core::SweepReport b = warm_pooled.run(jobs);
  EXPECT_EQ(core::sweep_checksum(a), core::sweep_checksum(b));
  EXPECT_EQ(b.warmup_groups, 2u);  // one fault-free pair per profile
  EXPECT_GT(b.warmup_cycles_simulated, 0u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_identical(a.jobs[i].result, b.jobs[i].result);
  }
}

TEST(BatchLockstep, PooledBatchesMatchSequentialSingles) {
  // workers > 1: each pool task runs one job; results must still be bitwise
  // those of the sequential sweep.
  const std::vector<core::SweepJob> jobs = [] {
    std::vector<core::SweepJob> g;
    for (const auto& name : {"bzip2", "gobmk", "mcf"}) {
      const auto prof = workload::spec2006_profile(name);
      g.push_back({prof, std::nullopt, 0.97, std::nullopt});
      g.push_back({prof, core::scheme_by_name("abs"), 0.97, std::nullopt});
    }
    return g;
  }();
  const core::SweepRunner sequential(shard_config(), 1);
  const core::SweepRunner pooled(shard_config(), 4);
  const std::vector<core::RunResult> rs = sequential.run_results(jobs);
  const std::vector<core::RunResult> rp = pooled.run_results(jobs);
  ASSERT_EQ(rp.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    expect_identical(rs[i], rp[i]);
  }
  EXPECT_EQ(core::sweep_checksum(rs), core::sweep_checksum(rp));
}

TEST(BatchLockstep, ThrowingMemberIsContainedAndReported) {
  std::vector<core::SweepJob> jobs;
  const auto bzip2 = workload::spec2006_profile("bzip2");
  jobs.push_back({bzip2, std::nullopt, 0.97, std::nullopt});
  core::RunnerConfig broken = shard_config();
  broken.core.phys_regs = 1;  // Pipeline's constructor rejects this
  jobs.push_back({bzip2, std::nullopt, 0.97, broken});
  jobs.push_back({bzip2, core::scheme_by_name("abs"), 0.97, std::nullopt});

  // SweepRunner reports per job and rethrows the first failure only after
  // the grid drains; the same runner then completes the healthy grid.
  const core::SweepRunner sweeper(shard_config(), 3);
  EXPECT_THROW({ (void)sweeper.run(jobs); }, std::invalid_argument);
  jobs[1].config.reset();
  const core::SweepReport healthy = sweeper.run(jobs);
  EXPECT_EQ(healthy.jobs.size(), jobs.size());
}

TEST(BatchEnv, VasimBatchValidation) {
  // set_batch is a pin for callers written against the batch engine: it
  // accepts 1, which changes nothing, and rejects every other width by name.
  const auto bzip2 = workload::spec2006_profile("bzip2");
  std::vector<core::SweepJob> jobs;
  jobs.push_back({bzip2, std::nullopt, 0.97, std::nullopt});
  jobs.push_back({bzip2, core::scheme_by_name("ffs"), 0.97, std::nullopt});
  const core::SweepRunner fresh(shard_config(), 2);
  const u64 expected = core::sweep_checksum(fresh.run_results(jobs));

  core::SweepRunner pinned(shard_config(), 2);
  EXPECT_NO_THROW(pinned.set_batch(1));
  for (const std::size_t width : {std::size_t{0}, std::size_t{2}, std::size_t{8}, std::size_t{64}}) {
    try {
      pinned.set_batch(width);
      ADD_FAILURE() << "set_batch(" << width << ") was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("batch"), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(core::sweep_checksum(pinned.run_results(jobs)), expected);
}

// ---- sweep sharding ---------------------------------------------------------

TEST(ShardMerge, ParseShardAcceptsAndRejects) {
  const core::ShardSpec s = core::parse_shard("2/4");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 4u);
  const core::ShardSpec one = core::parse_shard("1/1");
  EXPECT_EQ(one.index, 1u);
  EXPECT_EQ(one.count, 1u);
  for (const char* bad : {"", "2", "2/", "/4", "0/4", "5/4", "a/4", "2/b", "1/0", "-1/4", "1/4/2"}) {
    EXPECT_THROW({ (void)core::parse_shard(bad); }, std::invalid_argument) << "'" << bad << "'";
  }
}

std::vector<core::SweepJob> shard_grid() {
  std::vector<core::SweepJob> jobs;
  for (const auto& name : {"bzip2", "gobmk", "sjeng"}) {
    const auto prof = workload::spec2006_profile(name);
    jobs.push_back({prof, std::nullopt, 0.97, std::nullopt});
    jobs.push_back({prof, std::nullopt, 1.10, std::nullopt});
    jobs.push_back({prof, core::scheme_by_name("razor"), 0.97, std::nullopt});
    jobs.push_back({prof, core::scheme_by_name("ep"), 0.97, std::nullopt});
  }
  return jobs;
}

TEST(ShardMerge, PartitionCoversEveryJobExactlyOnce) {
  const std::vector<core::SweepJob> jobs = shard_grid();
  for (const bool reuse : {false, true}) {
    std::set<std::size_t> seen;
    for (std::size_t i = 1; i <= 3; ++i) {
      const auto idx = core::shard_indices(jobs, {i, 3}, reuse, shard_config());
      for (std::size_t k = 1; k < idx.size(); ++k) EXPECT_LT(idx[k - 1], idx[k]);  // ascending
      for (const std::size_t j : idx) {
        EXPECT_TRUE(seen.insert(j).second) << "job " << j << " in two shards (reuse=" << reuse
                                           << ")";
      }
    }
    EXPECT_EQ(seen.size(), jobs.size()) << "reuse=" << reuse;
  }
  // Group-aware mode keeps each fault-free warmup pair on one shard.
  for (std::size_t i = 1; i <= 3; ++i) {
    const auto idx = core::shard_indices(jobs, {i, 3}, true, shard_config());
    for (std::size_t at = 0; at + 3 < jobs.size(); at += 4) {
      const bool first = std::find(idx.begin(), idx.end(), at) != idx.end();
      const bool second = std::find(idx.begin(), idx.end(), at + 1) != idx.end();
      EXPECT_EQ(first, second) << "warmup group split across shards";
    }
  }
}

/// Runs shard i/N of `jobs`, packages it as a fragment, and round-trips it
/// through the JSON codec (what the CLI writes to disk and sweep-merge
/// reads back).
core::SweepFragment run_shard(const std::vector<core::SweepJob>& jobs, std::size_t i,
                              std::size_t n, bool reuse) {
  const core::ShardSpec spec{i, n};
  const auto indices = core::shard_indices(jobs, spec, reuse, shard_config());
  std::vector<core::SweepJob> mine;
  for (const std::size_t j : indices) mine.push_back(jobs[j]);
  core::SweepRunner runner(shard_config(), 1);
  runner.set_reuse_warmup(reuse);
  core::SweepReport report = runner.run(mine);
  const core::SweepFragment f =
      core::make_fragment("unit", spec, jobs.size(), indices, std::move(report));
  std::stringstream ss;
  core::write_fragment_json(ss, f);
  return core::read_fragment_json(ss);
}

TEST(ShardMerge, ThreeWayMergeIsChecksumIdenticalToUnsharded) {
  const std::vector<core::SweepJob> jobs = shard_grid();
  core::SweepRunner whole(shard_config(), 1);
  const core::SweepReport unsharded = whole.run(jobs);

  std::vector<core::SweepFragment> fragments;
  for (std::size_t i = 1; i <= 3; ++i) fragments.push_back(run_shard(jobs, i, 3, false));
  const core::SweepReport merged = core::merge_fragments(std::move(fragments));

  ASSERT_EQ(merged.jobs.size(), jobs.size());
  EXPECT_EQ(core::sweep_checksum(merged), core::sweep_checksum(unsharded));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    expect_identical(merged.jobs[i].result, unsharded.jobs[i].result);
  }
}

TEST(ShardMerge, WarmupAccountingSumsExactlyAcrossShards) {
  const std::vector<core::SweepJob> jobs = shard_grid();
  core::SweepRunner whole(shard_config(), 1);
  whole.set_reuse_warmup(true);
  const core::SweepReport unsharded = whole.run(jobs);

  std::vector<core::SweepFragment> fragments;
  for (std::size_t i = 1; i <= 2; ++i) fragments.push_back(run_shard(jobs, i, 2, true));
  const core::SweepReport merged = core::merge_fragments(std::move(fragments));

  EXPECT_EQ(core::sweep_checksum(merged), core::sweep_checksum(unsharded));
  // Whole groups travel to one shard, so the merged accounting is the plain
  // sum and equals the unsharded run's.
  EXPECT_EQ(merged.warmup_groups, unsharded.warmup_groups);
  EXPECT_EQ(merged.warmup_cycles_simulated, unsharded.warmup_cycles_simulated);
  EXPECT_EQ(merged.warmup_cycles_saved, unsharded.warmup_cycles_saved);
  EXPECT_GT(merged.warmup_groups, 0u);
}

TEST(ShardMerge, MergeValidatesCoverageAndIdentity) {
  const std::vector<core::SweepJob> jobs = shard_grid();
  const core::SweepFragment f1 = run_shard(jobs, 1, 2, false);
  const core::SweepFragment f2 = run_shard(jobs, 2, 2, false);

  // Happy path sanity.
  EXPECT_NO_THROW({ (void)core::merge_fragments({f1, f2}); });
  // Missing shard -> incomplete coverage.
  EXPECT_THROW({ (void)core::merge_fragments({f1}); }, std::runtime_error);
  // Same shard twice -> duplicate index.
  EXPECT_THROW({ (void)core::merge_fragments({f1, f1}); }, std::runtime_error);
  // Disagreeing identity -> rejected.
  core::SweepFragment renamed = f2;
  renamed.name = "other";
  EXPECT_THROW({ (void)core::merge_fragments({f1, renamed}); }, std::runtime_error);
  core::SweepFragment wrong_count = f2;
  wrong_count.shard_count = 3;
  EXPECT_THROW({ (void)core::merge_fragments({f1, wrong_count}); }, std::runtime_error);
}

TEST(ShardMerge, FragmentJsonRoundTripPreservesEverything) {
  const std::vector<core::SweepJob> jobs = shard_grid();
  const core::ShardSpec spec{1, 2};
  const auto indices = core::shard_indices(jobs, spec, false, shard_config());
  std::vector<core::SweepJob> mine;
  for (const std::size_t j : indices) mine.push_back(jobs[j]);
  core::SweepRunner runner(shard_config(), 1);
  core::SweepReport report = runner.run(mine);
  const core::SweepFragment f =
      core::make_fragment("unit", spec, jobs.size(), indices, std::move(report));

  std::stringstream ss;
  core::write_fragment_json(ss, f);
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"kind\": \"sweep_fragment\""), std::string::npos);
  EXPECT_NE(json.find("\"shard_index\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"blob\""), std::string::npos);

  std::stringstream back(json);
  const core::SweepFragment g = core::read_fragment_json(back);
  EXPECT_EQ(g.name, f.name);
  EXPECT_EQ(g.shard_index, f.shard_index);
  EXPECT_EQ(g.shard_count, f.shard_count);
  EXPECT_EQ(g.total_jobs, f.total_jobs);
  EXPECT_EQ(g.warmup_groups, f.warmup_groups);
  EXPECT_EQ(g.warmup_cycles_simulated, f.warmup_cycles_simulated);
  EXPECT_EQ(g.warmup_cycles_saved, f.warmup_cycles_saved);
  ASSERT_EQ(g.entries.size(), f.entries.size());
  for (std::size_t i = 0; i < f.entries.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    EXPECT_EQ(g.entries[i].index, f.entries[i].index);
    expect_identical(g.entries[i].outcome.result, f.entries[i].outcome.result);
  }

  // Garbage in -> loud failure, not a silent half-parse.
  std::stringstream junk("{\"kind\": \"something_else\"}");
  EXPECT_THROW({ (void)core::read_fragment_json(junk); }, std::runtime_error);
}

TEST(ShardMerge, MismatchedFragmentSchemaFailsWithNamedError) {
  // A fragment written by an older build (schema 1): the reader must refuse
  // with the typed error naming the file and both schema numbers, so a
  // partially regenerated shard set fails loudly instead of merging stale
  // per-job layouts.
  std::stringstream old_frag(
      "{\n"
      "  \"bench\": \"x\",\n"
      "  \"kind\": \"sweep_fragment\",\n"
      "  \"schema_version\": 1,\n"
      "  \"shard_index\": 1,\n"
      "  \"shard_count\": 1,\n"
      "  \"total_jobs\": 0,\n"
      "  \"workers\": 1,\n"
      "  \"wall_ms\": 0,\n"
      "  \"warmup_groups\": 0,\n"
      "  \"warmup_cycles_simulated\": 0,\n"
      "  \"warmup_cycles_saved\": 0,\n"
      "  \"jobs\": []\n"
      "}\n");
  try {
    (void)core::read_fragment_json(old_frag, "frag_a.json");
    FAIL() << "schema 1 fragment must be rejected";
  } catch (const core::FragmentSchemaError& e) {
    EXPECT_EQ(e.path(), "frag_a.json");
    EXPECT_EQ(e.found(), 1u);
    EXPECT_EQ(e.expected(), 3u);
    EXPECT_NE(std::string(e.what()).find("frag_a.json"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("schema_version 1"), std::string::npos);
  }
  // FragmentSchemaError stays catchable as the codec's generic error type.
  std::stringstream again(
      "{\"bench\": \"x\", \"kind\": \"sweep_fragment\", \"schema_version\": 7}");
  EXPECT_THROW({ (void)core::read_fragment_json(again); }, std::runtime_error);
}

/// A one-entry fragment whose commit trail and DVFS trajectory each hold
/// one marker entry, so a test can find their counts in the hex blob: the
/// u32 count is the 8 hex digits right before the marker's bytes.
std::string marked_fragment_json() {
  core::SweepFragment f;
  f.name = "counts";
  f.total_jobs = 1;
  core::FragmentEntry e;
  e.outcome.result.benchmark = "bzip2";
  e.outcome.result.scheme = "abs";
  e.outcome.result.commit_trail = {0x1122334455667788ULL};
  core::DvfsSummary d;
  d.policy = "reactive";
  d.trajectory = {{0xA1A2A3A4A5A6A7A8ULL, 1000, 0}};
  e.outcome.result.dvfs = d;
  f.entries.push_back(e);
  std::stringstream ss;
  core::write_fragment_json(ss, f);
  return ss.str();
}

/// Rewrites the count before `marker_hex` to 0xFFFFFFFF and expects the
/// fragment reader to reject it by `field`, not by allocating for it.
void expect_huge_count_rejected(const std::string& marker_hex, const std::string& field) {
  std::string json = marked_fragment_json();
  const std::size_t at = json.find("01000000" + marker_hex);
  ASSERT_NE(at, std::string::npos) << "marker " << marker_hex << " not in the blob";
  json.replace(at, 8, "ffffffff");
  std::istringstream in(json);
  try {
    (void)core::read_fragment_json(in, "frag");
    FAIL() << "a count of 0xFFFFFFFF was accepted";
  } catch (const snap::SnapshotError& err) {
    EXPECT_NE(std::string(err.what()).find(field), std::string::npos) << err.what();
  }
}

TEST(ShardMerge, HugeCommitTrailCountIsRejectedByName) {
  expect_huge_count_rejected("8877665544332211", "fragment commit trail");
}

TEST(ShardMerge, HugeDvfsTrajectoryCountIsRejectedByName) {
  expect_huge_count_rejected("a8a7a6a5a4a3a2a1", "fragment DVFS trajectory");
}

}  // namespace
}  // namespace vasim
