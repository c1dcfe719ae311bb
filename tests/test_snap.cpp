// Snapshot subsystem: byte-stream primitives, the chunk container's
// rejection guarantees (a damaged snapshot is never silently loaded), and
// the headline property of the whole feature -- restore-then-run is bitwise
// identical to never having paused, fuzzed over capture points, schemes and
// supplies with the semantics checker attached.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/snapshot.hpp"
#include "src/core/sweep.hpp"
#include "src/snap/format.hpp"
#include "src/snap/io.hpp"
#include "src/workload/profiles.hpp"
#include "tests/fuzz_util.hpp"
#include "tests/run_compare.hpp"

namespace vasim {
namespace {

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---- io primitives ---------------------------------------------------------

TEST(SnapIo, RoundTripsEveryType) {
  snap::Writer w;
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i32(-42);
  w.put_i64(-1234567890123ll);
  w.put_bool(true);
  w.put_bool(false);
  w.put_f64(-0.15625);
  w.put_str("vasim");
  w.put_str("");
  const unsigned char raw[3] = {1, 2, 3};
  w.put_bytes(raw, sizeof raw);

  snap::Reader r(w.data());
  EXPECT_EQ(r.get_u8(), 0xABu);
  EXPECT_EQ(r.get_u16(), 0xBEEFu);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_i64(), -1234567890123ll);
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  EXPECT_EQ(r.get_f64(), -0.15625);
  EXPECT_EQ(r.get_str(), "vasim");
  EXPECT_EQ(r.get_str(), "");
  unsigned char back[3] = {};
  r.get_bytes(back, sizeof back);
  EXPECT_EQ(back[2], 3);
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done("test"));
}

TEST(SnapIo, ReaderRejectsUnderrunAndJunk) {
  snap::Writer w;
  w.put_u32(7);
  snap::Reader r(w.data());
  EXPECT_THROW((void)r.get_u64(), snap::SnapshotError);  // only 4 bytes present
  snap::Reader r2(w.data());
  (void)r2.get_u16();
  EXPECT_THROW(r2.expect_done("test"), snap::SnapshotError);  // 2 bytes trailing
  snap::Writer wb;
  wb.put_u8(2);  // not a valid bool encoding
  snap::Reader r3(wb.data());
  EXPECT_THROW((void)r3.get_bool(), snap::SnapshotError);
  snap::Writer ws;
  ws.put_u32(1000);  // string length far past the buffer
  snap::Reader r4(ws.data());
  EXPECT_THROW((void)r4.get_str(), snap::SnapshotError);
}

TEST(SnapIo, CountIsBoundedByTheBytesLeft) {
  snap::Writer w;
  w.put_u32(2);
  w.put_u64(1);
  w.put_u64(2);
  snap::Reader fits(w.data());
  EXPECT_EQ(fits.get_count("pairs", 8), 2u);
  snap::Reader short_by_two(w.data());
  try {
    (void)short_by_two.get_count("pairs", 9);
    FAIL() << "two 9-byte entries do not fit in 16 bytes";
  } catch (const snap::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("pairs count 2"), std::string::npos) << e.what();
  }
}

TEST(SnapIo, StatSetCodecRoundTrips) {
  StatSet s;
  s.inc("fetch.count", 123);
  s.inc("commit.count", 456);
  s.set("ipc", 1.75);
  snap::Writer w;
  snap::put_statset(w, s);
  snap::Reader r(w.data());
  const StatSet back = snap::get_statset(r);
  EXPECT_EQ(back.counters(), s.counters());
  EXPECT_EQ(back.scalars(), s.scalars());
  EXPECT_TRUE(r.done());
}

TEST(SnapIo, Crc32MatchesKnownVector) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(snap::crc32("123456789", 9), 0xCBF43926u);
}

// ---- chunk container -------------------------------------------------------

snap::Snapshot two_chunk_snapshot() {
  snap::Snapshot s;
  snap::Writer a;
  a.put_u64(42);
  s.add(snap::chunk_tag("AAAA"), 1, std::move(a));
  snap::Writer b;
  b.put_str("payload-b");
  s.add(snap::chunk_tag("BBBB"), 3, std::move(b));
  return s;
}

TEST(SnapFormat, EncodeDecodeRoundTrips) {
  const snap::Snapshot s = two_chunk_snapshot();
  const std::vector<unsigned char> bytes = snap::encode_snapshot(s);
  const snap::Snapshot back = snap::decode_snapshot(bytes.data(), bytes.size());
  ASSERT_EQ(back.chunks().size(), 2u);
  EXPECT_EQ(back.chunks()[0].tag, snap::chunk_tag("AAAA"));
  EXPECT_EQ(back.chunks()[0].version, 1u);
  EXPECT_EQ(back.chunks()[0].payload, s.chunks()[0].payload);
  EXPECT_EQ(back.chunks()[1].version, 3u);
  EXPECT_EQ(back.require(snap::chunk_tag("BBBB")).payload, s.chunks()[1].payload);
  EXPECT_EQ(back.find(snap::chunk_tag("ZZZZ")), nullptr);
  EXPECT_THROW((void)back.require(snap::chunk_tag("ZZZZ")), snap::SnapshotError);
}

TEST(SnapFormat, RejectsEveryKindOfDamage) {
  const std::vector<unsigned char> good = snap::encode_snapshot(two_chunk_snapshot());

  {  // bad magic
    std::vector<unsigned char> bytes = good;
    bytes[0] ^= 0xFF;
    EXPECT_THROW((void)snap::decode_snapshot(bytes.data(), bytes.size()), snap::SnapshotError);
  }
  {  // unsupported container version
    std::vector<unsigned char> bytes = good;
    bytes[8] = 99;
    EXPECT_THROW((void)snap::decode_snapshot(bytes.data(), bytes.size()), snap::SnapshotError);
  }
  {  // endianness marker mismatch
    std::vector<unsigned char> bytes = good;
    bytes[12] ^= 0xFF;
    EXPECT_THROW((void)snap::decode_snapshot(bytes.data(), bytes.size()), snap::SnapshotError);
  }
  {  // flipped payload byte breaks that chunk's CRC
    std::vector<unsigned char> bytes = good;
    bytes[bytes.size() - 1] ^= 0x01;
    EXPECT_THROW((void)snap::decode_snapshot(bytes.data(), bytes.size()), snap::SnapshotError);
  }
  // every possible truncation point
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_THROW((void)snap::decode_snapshot(good.data(), n), snap::SnapshotError)
        << "truncation to " << n << " bytes must be rejected";
  }
}

TEST(SnapFormat, FileRoundTripAndInfo) {
  const std::string path = tmp_path("vasim_test_container.vsnap");
  snap::write_snapshot_file(path, two_chunk_snapshot());
  const snap::Snapshot back = snap::read_snapshot_file(path);
  EXPECT_EQ(back.chunks().size(), 2u);

  const snap::SnapshotInfo info = snap::read_snapshot_info(path);
  EXPECT_EQ(info.format_version, snap::kFormatVersion);
  EXPECT_TRUE(info.endian_ok);
  ASSERT_EQ(info.chunks.size(), 2u);
  EXPECT_TRUE(info.chunks[0].crc_ok);
  EXPECT_EQ(snap::tag_name(info.chunks[0].tag), "AAAA");

  // Corrupt the last payload byte on disk: read_snapshot_file throws, the
  // diagnostic reader instead reports the bad CRC.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }
  EXPECT_THROW((void)snap::read_snapshot_file(path), snap::SnapshotError);
  const snap::SnapshotInfo bad = snap::read_snapshot_info(path);
  EXPECT_FALSE(bad.chunks[1].crc_ok);
  EXPECT_TRUE(bad.chunks[0].crc_ok);
  std::remove(path.c_str());
  EXPECT_THROW((void)snap::read_snapshot_file(path), snap::SnapshotError);  // missing file
}

// ---- Pcg32 state round trip ------------------------------------------------

TEST(SnapRng, Pcg32StateRoundTripsExactly) {
  Pcg32 rng(2013);
  for (int i = 0; i < 17; ++i) (void)rng.next_u32();
  (void)rng.next_gaussian();  // leaves a Box-Muller spare behind

  Pcg32 copy(1);  // different seed, fully overwritten below
  copy.restore_raw(rng.state(), rng.inc(), rng.gaussian_spare(), rng.has_gaussian_spare());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(copy.next_u32(), rng.next_u32()) << "draw " << i;
  }
  EXPECT_EQ(copy.next_gaussian(), rng.next_gaussian());  // consumes the spare
  EXPECT_EQ(copy.next_gaussian(), rng.next_gaussian());  // regenerates
}

// ---- run-level snapshots ---------------------------------------------------

core::RunnerConfig snap_config() {
  core::RunnerConfig rc;
  rc.instructions = 3'000;
  rc.warmup = 1'500;
  rc.check_semantics = true;
  rc.commit_trail_stride = 250;
  return rc;
}

TEST(RunSnapshot, WarmupCaptureResumesBitIdentically) {
  const auto prof = workload::spec2006_profile("bzip2");
  const auto scheme = core::scheme_by_name("razor");
  const core::ExperimentRunner runner(snap_config());
  const core::RunResult straight = runner.run(prof, *scheme, 0.97);

  const core::RunSnapshot snap = runner.capture(prof, scheme, 0.97, snap_config().warmup);
  EXPECT_EQ(snap.meta().captured_committed, snap_config().warmup);
  EXPECT_FALSE(snap.meta().base_captured);
  expect_bitwise_identical(runner.run_from(snap), straight);
}

TEST(RunSnapshot, FileRoundTripPreservesResumeIdentity) {
  const auto prof = workload::spec2006_profile("gcc");
  const core::ExperimentRunner runner(snap_config());
  const core::RunResult straight = runner.run(prof, std::nullopt, 0.97);

  const std::string path = tmp_path("vasim_test_run.vsnap");
  runner.capture(prof, std::nullopt, 0.97, 800).write_file(path);
  const core::RunSnapshot back = core::RunSnapshot::read_file(path);
  EXPECT_TRUE(back.meta().fault_free);
  EXPECT_EQ(back.meta().profile.name, "gcc");
  expect_bitwise_identical(runner.run_from(back), straight);
  std::remove(path.c_str());
}

TEST(RunSnapshot, UnknownChunksAreSkippedOnRestore) {
  const auto prof = workload::spec2006_profile("bzip2");
  const core::ExperimentRunner runner(snap_config());
  const core::RunResult straight = runner.run(prof, std::nullopt, 1.10);

  core::RunSnapshot snap = runner.capture(prof, std::nullopt, 1.10, 1'000);
  snap::Writer future;
  future.put_str("from a newer vasim");
  snap.container().add(snap::chunk_tag("ZZZZ"), 7, std::move(future));
  // Round-trip through the encoder so the unknown chunk also survives the
  // on-disk framing, then restore: the reader must skip what it cannot parse.
  const std::vector<unsigned char> bytes = snap::encode_snapshot(snap.container());
  const core::RunSnapshot reread =
      core::RunSnapshot::from_container(snap::decode_snapshot(bytes.data(), bytes.size()));
  expect_bitwise_identical(runner.run_from(reread), straight);
}

TEST(RunSnapshot, HugeTrailCountIsRejectedByName) {
  const auto prof = workload::spec2006_profile("bzip2");
  const core::ExperimentRunner runner(snap_config());
  const core::RunSnapshot snap = runner.capture(prof, core::scheme_by_name("razor"), 0.97, 1'000);
  ASSERT_NE(snap.container().find(core::kChunkTral), nullptr);
  // TRAL payload: u64 commits, then the u32 trail count.
  snap::Snapshot bad;
  for (const snap::Chunk& c : snap.container().chunks()) {
    std::vector<unsigned char> payload = c.payload;
    if (c.tag == core::kChunkTral) std::fill(payload.begin() + 8, payload.begin() + 12, 0xFF);
    bad.add(c.tag, c.version, std::move(payload));
  }
  const core::RunSnapshot damaged = core::RunSnapshot::from_container(std::move(bad));
  try {
    (void)runner.run_from(damaged);
    FAIL() << "a trail count of 0xFFFFFFFF was accepted";
  } catch (const snap::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("TRAL commit trail"), std::string::npos) << e.what();
  }
}

TEST(RunSnapshot, OldCheckerChunkIsRejectedByName) {
  const auto prof = workload::spec2006_profile("bzip2");
  const core::ExperimentRunner runner(snap_config());
  const core::RunSnapshot snap = runner.capture(prof, core::scheme_by_name("razor"), 0.97, 1'000);
  ASSERT_EQ(snap.container().require(core::kChunkChkr).version, 2u);
  // A version-1 CHKR payload has a different layout; it is refused by its
  // version before any field is read.
  snap::Snapshot old;
  for (const snap::Chunk& c : snap.container().chunks()) {
    old.add(c.tag, c.tag == core::kChunkChkr ? 1u : c.version, c.payload);
  }
  const core::RunSnapshot v1 = core::RunSnapshot::from_container(std::move(old));
  try {
    (void)runner.run_from(v1);
    FAIL() << "a version-1 CHKR chunk was accepted";
  } catch (const snap::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("CHKR chunk version 1 (this build reads 2)"),
              std::string::npos)
        << e.what();
  }
}

TEST(RunSnapshot, OldPipelineChunkIsRejectedByName) {
  const auto prof = workload::spec2006_profile("bzip2");
  const core::ExperimentRunner runner(snap_config());
  const core::RunSnapshot snap = runner.capture(prof, core::scheme_by_name("razor"), 0.97, 1'000);
  ASSERT_EQ(snap.container().require(core::kChunkPipe).version, 2u);
  // A version-1 PIPE payload stores a valid flag and a 64-bit LRU stamp per
  // cache line; it is refused by its version before any field is read.
  snap::Snapshot old;
  for (const snap::Chunk& c : snap.container().chunks()) {
    old.add(c.tag, c.tag == core::kChunkPipe ? 1u : c.version, c.payload);
  }
  const core::RunSnapshot v1 = core::RunSnapshot::from_container(std::move(old));
  try {
    (void)runner.run_from(v1);
    FAIL() << "a version-1 PIPE chunk was accepted";
  } catch (const snap::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("PIPE chunk version 1 (this build reads 2)"),
              std::string::npos)
        << e.what();
  }
}

// Rewrites the L2 geometry in a snapshot's META, re-keys it and resumes it
// the way `vasim run --from-snapshot` does: with a runner rebuilt from META.
// The hostile geometry must be refused by name, not crash the resume.
void expect_l2_rejected_by_name(void (*edit)(cpu::CacheConfig&), const std::string& needle) {
  const auto prof = workload::spec2006_profile("bzip2");
  const core::RunSnapshot snap =
      core::ExperimentRunner(snap_config()).capture(prof, std::nullopt, 0.97, 1'000);
  core::RunMeta m = snap.meta();
  edit(m.core.l2);
  core::RunnerConfig rc = snap_config();
  rc.core = m.core;
  m.warmup_key = core::warmup_key(rc, m.profile, std::nullopt, m.vdd);
  snap::Snapshot bad;
  for (const snap::Chunk& c : snap.container().chunks()) {
    if (c.tag == core::kChunkMeta) {
      snap::Writer w;
      core::put_run_meta(w, m);
      bad.add(c.tag, c.version, w.take());
    } else {
      bad.add(c.tag, c.version, c.payload);
    }
  }
  const core::RunSnapshot hostile = core::RunSnapshot::from_container(std::move(bad));
  try {
    (void)core::ExperimentRunner(rc).run_from(hostile);
    FAIL() << "a hostile L2 geometry was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(RunSnapshot, ZeroCacheLineIsRejectedByName) {
  expect_l2_rejected_by_name([](cpu::CacheConfig& l2) { l2.line_bytes = 0; },
                             "l2.line_bytes must be a power of two");
}

TEST(RunSnapshot, HugeCacheIsRejectedByName) {
  expect_l2_rejected_by_name([](cpu::CacheConfig& l2) { l2.size_bytes = u64{1} << 40; },
                             "l2.size_bytes exceeds 1 GiB");
}

// A resumed run's progress meter counts only the commits the resume
// performs: the final line of a 3,000-commit resume from the 1,500-commit
// warmup reads 3000/3000, not 4500/4500.
TEST(RunSnapshot, ResumedProgressCountsOnlyTheResumedCommits) {
  const auto prof = workload::spec2006_profile("bzip2");
  core::RunnerConfig rc = snap_config();
  const core::RunSnapshot snap =
      core::ExperimentRunner(rc).capture(prof, core::scheme_by_name("abs"), 0.97, rc.warmup);
  ASSERT_EQ(snap.meta().captured_committed, rc.warmup);
  rc.progress = true;
  testing::internal::CaptureStderr();
  (void)core::ExperimentRunner(rc).run_from(snap);
  const std::string err = testing::internal::GetCapturedStderr();
  const std::string last = err.substr(err.rfind('\r') + 1);
  EXPECT_EQ(last.rfind("[run] 3000/3000 commits done, ", 0), 0u) << last;
}

TEST(DelayQueueSnapshot, KernelIsPartOfTheWarmupKey) {
  // A warmup captured under the removed delay-queue kernel must never seed
  // an issue-window run: the kernel byte stays in META, is always written as
  // 0, and any other value is refused by name.
  snap::Writer w;
  core::put_core_config(w, cpu::CoreConfig{});
  std::vector<unsigned char> bytes = w.take();
  ASSERT_EQ(bytes.back(), 0) << "the kernel byte is last and always 0";
  {
    snap::Reader r(bytes);
    EXPECT_NO_THROW((void)core::get_core_config(r));
  }
  bytes.back() = 1;  // the delay-queue kernel
  {
    snap::Reader r(bytes);
    try {
      (void)core::get_core_config(r);
      FAIL() << "a delay-queue snapshot was accepted";
    } catch (const snap::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("delay-queue"), std::string::npos) << e.what();
    }
  }
  bytes.back() = 2;
  snap::Reader r(bytes);
  EXPECT_THROW((void)core::get_core_config(r), snap::SnapshotError);
}

TEST(RunSnapshot, MismatchedResumeConfigIsRejected) {
  const auto prof = workload::spec2006_profile("bzip2");
  const auto scheme = core::scheme_by_name("razor");
  const core::ExperimentRunner runner(snap_config());
  const core::RunSnapshot snap = runner.capture(prof, scheme, 0.97, 500);

  core::RunnerConfig other = snap_config();
  other.warmup += 1;  // warmup-relevant field -> different warmup key
  EXPECT_THROW((void)core::ExperimentRunner(other).run_from(snap), snap::SnapshotError);

  core::RunnerConfig rob = snap_config();
  rob.core.rob_entries += 8;  // machine shape is warmup-relevant too
  EXPECT_THROW((void)core::ExperimentRunner(rob).run_from(snap), snap::SnapshotError);

  // Measurement-only fields are NOT part of the key: a different
  // instruction count resumes fine.
  core::RunnerConfig longer = snap_config();
  longer.instructions = 4'000;
  const core::RunResult r = core::ExperimentRunner(longer).run_from(snap);
  EXPECT_EQ(r.committed, 4'000u);
}

TEST(RunSnapshot, VddOverrideOnlyLegalForFaultFree) {
  const auto prof = workload::spec2006_profile("bzip2");
  const auto scheme = core::scheme_by_name("razor");
  const core::ExperimentRunner runner(snap_config());

  const core::RunSnapshot faulty = runner.capture(prof, scheme, 0.97, 500);
  EXPECT_THROW((void)runner.run_from(faulty, 1.04), snap::SnapshotError);
  expect_bitwise_identical(runner.run_from(faulty, 0.97),  // equal override is a no-op
                           runner.run_from(faulty));

  // Fault-free execution is supply-independent; only energy accounting moves.
  const core::RunSnapshot base = runner.capture(prof, std::nullopt, 0.97, 500);
  const core::RunResult at104 = runner.run_from(base, 1.04);
  const core::RunResult straight104 = runner.run(prof, std::nullopt, 1.04);
  expect_bitwise_identical(at104, straight104);
}

TEST(RunSnapshot, PeriodicIntervalSnapshotsAreWrittenAndLoadable) {
  const std::string prefix = tmp_path("vasim_test_periodic-");
  core::RunnerConfig rc = snap_config();
  rc.snapshot_interval = 1'000;
  rc.snapshot_path = prefix;
  const auto prof = workload::spec2006_profile("gobmk");
  const core::ExperimentRunner runner(rc);
  const core::RunResult straight = runner.run(prof, std::nullopt, 0.97);

  std::vector<std::string> files;
  const std::string dir = std::filesystem::temp_directory_path().string();
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("vasim_test_periodic-", 0) == 0) files.push_back(e.path().string());
  }
  // 4500 committed instructions at interval 1000 -> at least 4 snapshots.
  EXPECT_GE(files.size(), 4u);
  for (const std::string& f : files) {
    const core::RunSnapshot s = core::RunSnapshot::read_file(f);
    expect_bitwise_identical(core::ExperimentRunner(snap_config()).run_from(s), straight);
    std::remove(f.c_str());
  }
}

TEST(RunSnapshot, MetaCodecRoundTrips) {
  core::RunMeta m;
  m.fault_free = false;
  m.profile = workload::spec2006_profile("tonto");
  m.scheme = *core::scheme_by_name("cds");
  m.vdd = 1.04;
  m.instructions = 123;
  m.warmup = 456;
  m.predictor = core::PredictorKind::kTvp;
  m.check_semantics = true;
  m.commit_trail_stride = 42;
  m.captured_committed = 789;
  m.captured_cycle = 4321;
  m.base_captured = true;
  m.base.inc("commit.count", 9);
  m.base_committed = 9;
  m.base_cycles = 77;
  m.warmup_key = 0xABCDEF0123456789ull;

  snap::Writer w;
  core::put_run_meta(w, m);
  snap::Reader r(w.data());
  const core::RunMeta back = core::get_run_meta(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.fault_free, m.fault_free);
  EXPECT_EQ(back.profile.name, m.profile.name);
  EXPECT_EQ(back.profile.seed, m.profile.seed);
  EXPECT_EQ(back.scheme.name, m.scheme.name);
  EXPECT_EQ(back.scheme.policy, m.scheme.policy);
  EXPECT_EQ(back.vdd, m.vdd);
  EXPECT_EQ(back.instructions, m.instructions);
  EXPECT_EQ(back.warmup, m.warmup);
  EXPECT_EQ(back.predictor, m.predictor);
  EXPECT_EQ(back.check_semantics, m.check_semantics);
  EXPECT_EQ(back.commit_trail_stride, m.commit_trail_stride);
  EXPECT_EQ(back.captured_committed, m.captured_committed);
  EXPECT_EQ(back.captured_cycle, m.captured_cycle);
  EXPECT_EQ(back.base_captured, m.base_captured);
  EXPECT_EQ(back.base.counters(), m.base.counters());
  EXPECT_EQ(back.base_committed, m.base_committed);
  EXPECT_EQ(back.base_cycles, m.base_cycles);
  EXPECT_EQ(back.warmup_key, m.warmup_key);
}

// ---- warmup keys -----------------------------------------------------------

TEST(WarmupKey, GroupsExactlyTheShareableRuns) {
  const core::RunnerConfig rc = snap_config();
  const auto bzip2 = workload::spec2006_profile("bzip2");
  const auto gcc = workload::spec2006_profile("gcc");
  const auto razor = core::scheme_by_name("razor");
  const auto ep = core::scheme_by_name("ep");

  // Fault-free: vdd excluded (supply cannot affect fault-free execution).
  EXPECT_EQ(core::warmup_key_bytes(rc, bzip2, std::nullopt, 0.97),
            core::warmup_key_bytes(rc, bzip2, std::nullopt, 1.10));
  // Faulty: vdd is part of the key.
  EXPECT_NE(core::warmup_key_bytes(rc, bzip2, razor, 0.97),
            core::warmup_key_bytes(rc, bzip2, razor, 1.04));
  // Scheme, profile and warmup-relevant config all split groups.
  EXPECT_NE(core::warmup_key_bytes(rc, bzip2, razor, 0.97),
            core::warmup_key_bytes(rc, bzip2, ep, 0.97));
  EXPECT_NE(core::warmup_key_bytes(rc, bzip2, razor, 0.97),
            core::warmup_key_bytes(rc, gcc, razor, 0.97));
  core::RunnerConfig longer = rc;
  longer.instructions = 100'000;  // measurement-only -> same key
  EXPECT_EQ(core::warmup_key_bytes(rc, bzip2, razor, 0.97),
            core::warmup_key_bytes(longer, bzip2, razor, 0.97));
  core::RunnerConfig wider = rc;
  wider.core.commit_width += 1;
  EXPECT_NE(core::warmup_key_bytes(rc, bzip2, razor, 0.97),
            core::warmup_key_bytes(wider, bzip2, razor, 0.97));
}

// ---- warm-start sweep sharing ----------------------------------------------

TEST(SweepWarmStart, ReuseWarmupIsChecksumIdenticalAndAccounted) {
  std::vector<core::SweepJob> jobs;
  for (const auto& name : {"bzip2", "gobmk"}) {
    const auto prof = workload::spec2006_profile(name);
    // Fault-free at two supplies (one counted group per profile) plus two
    // faulty schemes at matching supplies (groups of one, not counted).
    jobs.push_back({prof, std::nullopt, 0.97, std::nullopt});
    jobs.push_back({prof, std::nullopt, 1.10, std::nullopt});
    jobs.push_back({prof, core::scheme_by_name("razor"), 0.97, std::nullopt});
    jobs.push_back({prof, core::scheme_by_name("ep"), 0.97, std::nullopt});
  }
  core::SweepRunner plain(snap_config(), 4);
  core::SweepRunner shared(snap_config(), 4);
  shared.set_reuse_warmup(true);

  const core::SweepReport a = plain.run(jobs);
  const core::SweepReport b = shared.run(jobs);
  EXPECT_EQ(core::sweep_checksum(a), core::sweep_checksum(b));
  EXPECT_EQ(a.warmup_groups, 0u);
  EXPECT_EQ(b.warmup_groups, 2u);  // one fault-free pair per profile
  EXPECT_GT(b.warmup_cycles_simulated, 0u);
  EXPECT_EQ(b.warmup_cycles_saved, b.warmup_cycles_simulated);  // groups of 2
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_bitwise_identical(a.jobs[i].result, b.jobs[i].result);
  }
}

TEST(SweepWarmStart, SingleWorkerMatchesPool) {
  std::vector<core::SweepJob> jobs;
  const auto prof = workload::spec2006_profile("bzip2");
  jobs.push_back({prof, std::nullopt, 0.97, std::nullopt});
  jobs.push_back({prof, std::nullopt, 1.04, std::nullopt});
  jobs.push_back({prof, std::nullopt, 1.10, std::nullopt});
  core::SweepRunner one(snap_config(), 1);
  core::SweepRunner four(snap_config(), 4);
  one.set_reuse_warmup(true);
  four.set_reuse_warmup(true);
  const core::SweepReport r1 = one.run(jobs);
  const core::SweepReport r4 = four.run(jobs);
  EXPECT_EQ(core::sweep_checksum(r1), core::sweep_checksum(r4));
  EXPECT_EQ(r1.warmup_groups, 1u);
  EXPECT_EQ(r4.warmup_groups, 1u);
  EXPECT_EQ(r1.warmup_cycles_saved, 2 * r1.warmup_cycles_simulated);  // group of 3
}

TEST(SweepWarmStart, GroupOfDistinctSimulationsRunsEachStraightThrough) {
  // Same warmup key, different measured windows: two simulations, each run
  // straight through.  Each job matches its standalone run, and the group
  // counts the warmup boundary a capture at the warmup would stop at.
  const auto prof = workload::spec2006_profile("bzip2");
  core::RunnerConfig longer = snap_config();
  longer.instructions += 1'000;
  const std::vector<core::SweepJob> jobs = {
      {prof, std::nullopt, 0.97, std::nullopt},
      {prof, std::nullopt, 1.10, longer},
      {prof, std::nullopt, 1.04, std::nullopt},  // shares job 0's simulation
  };
  core::SweepRunner shared(snap_config(), 2);
  shared.set_reuse_warmup(true);
  const core::SweepReport r = shared.run(jobs);
  EXPECT_EQ(r.simulations, 2u);
  EXPECT_EQ(r.warmup_groups, 1u);
  const u64 boundary = core::ExperimentRunner(snap_config())
                           .capture(prof, std::nullopt, 0.97, snap_config().warmup)
                           .meta()
                           .captured_cycle;
  EXPECT_EQ(r.warmup_cycles_simulated, boundary);
  EXPECT_EQ(r.warmup_cycles_saved, 2 * boundary);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const core::ExperimentRunner solo(jobs[i].config.value_or(snap_config()));
    expect_bitwise_identical(solo.run(prof, std::nullopt, jobs[i].vdd), r.jobs[i].result);
    EXPECT_EQ(r.jobs[i].result.warmup_cycles, boundary);
  }
}

TEST(SweepWarmStart, CollapsedGroupCountsItsLeadersWarmupBoundary) {
  // Fault-free jobs at three supplies are one simulation; the job-level
  // accounting still counts one group of three.
  const auto prof = workload::spec2006_profile("gobmk");
  std::vector<core::SweepJob> jobs;
  for (const double vdd : {0.97, 1.04, 1.10}) jobs.push_back({prof, std::nullopt, vdd, {}});
  core::SweepRunner shared(snap_config(), 1);
  shared.set_reuse_warmup(true);
  const core::SweepReport r = shared.run(jobs);
  EXPECT_EQ(r.simulations, 1u);
  EXPECT_EQ(r.warmup_groups, 1u);
  EXPECT_EQ(r.warmup_cycles_simulated,
            core::ExperimentRunner(snap_config())
                .capture(prof, std::nullopt, 0.97, snap_config().warmup)
                .meta()
                .captured_cycle);
  EXPECT_EQ(r.warmup_cycles_saved, 2 * r.warmup_cycles_simulated);
  // Without reuse the accounting stays zero.
  const core::SweepReport plain = core::SweepRunner(snap_config(), 1).run(jobs);
  EXPECT_EQ(plain.warmup_groups, 0u);
  EXPECT_EQ(plain.warmup_cycles_simulated, 0u);
  EXPECT_EQ(core::sweep_checksum(plain), core::sweep_checksum(r));
}

// ---- fuzz: capture anywhere, resume bit-identically ------------------------

TEST(SnapFuzz, RandomCapturePointsResumeBitIdentically) {
  const std::vector<u64> seeds = fuzzutil::seeds("snap", 9'000, 6);
  const char* benches[] = {"bzip2", "gcc", "gobmk", "tonto"};
  const char* schemes[] = {"fault-free", "razor", "ep", "abs", "ffs", "cds"};
  const double vdds[] = {0.97, 1.04};

  for (const u64 seed : seeds) {
    Pcg32 rng(seed);
    const auto prof = workload::spec2006_profile(benches[rng.next_u32() % 4]);
    const std::string scheme_name = schemes[rng.next_u32() % 6];
    const std::optional<cpu::SchemeConfig> scheme =
        scheme_name == "fault-free" ? std::optional<cpu::SchemeConfig>{}
                                    : core::scheme_by_name(scheme_name);
    const double vdd = scheme ? vdds[rng.next_u32() % 2] : 0.97;
    const core::RunnerConfig rc = snap_config();
    // Anywhere in the run: before, at, and after the warmup boundary, plus
    // past the end (resolves to the final state).
    const u64 span = rc.warmup + rc.instructions;
    const u64 at = rng.next_u32() % (span + span / 10);
    SCOPED_TRACE("seed " + std::to_string(seed) + " " + prof.name + "/" + scheme_name + " @" +
                 std::to_string(vdd) + " capture@" + std::to_string(at));

    const core::ExperimentRunner runner(rc);
    const core::RunSnapshot snap = runner.capture(prof, scheme, vdd, at);
    EXPECT_GE(snap.meta().captured_committed, std::min(at, span));
    expect_bitwise_identical(runner.run_from(snap), runner.run(prof, scheme, vdd));
  }
}

}  // namespace
}  // namespace vasim
