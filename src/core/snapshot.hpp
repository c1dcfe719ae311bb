// Run-level snapshot container: the experiment-facing view of src/snap.
//
// A RunSnapshot is a chunked, CRC-protected snap::Snapshot plus the decoded
// META header describing what was captured: the full workload profile, the
// scheme, the supply point, the warmup-relevant runner configuration, and
// the capture progress (committed count, cycle, and -- for mid-measurement
// captures -- the measurement-base statistics).  ExperimentRunner::capture
// produces them; ExperimentRunner::run_from resumes them bit-identically
// (tests/test_snap.cpp pins this against uninterrupted runs).
//
// Chunk map (all payloads little-endian, see docs/snapshot.md):
//   META  capture identity + configs + progress (this header)
//   PIPE  cpu::Pipeline::save_state (whole machine state)
//   TGEN  workload::TraceGenerator cursors + RNG
//   PRED  TEP/MRE/TVP predictor tables (absent on fault-free captures)
//   CHKR  check::SemanticsChecker shadow model (when check_semantics)
//   TRAL  commit-trail samples recorded so far (when commit_trail_stride)
//   ADPT  adapt::ClockDomain controller state (adaptive-dvfs captures only)
//
// Unknown chunks are skipped on restore (forward compatibility); missing
// required chunks and any header/CRC/geometry mismatch throw
// snap::SnapshotError -- a damaged snapshot is never silently loaded.
#ifndef VASIM_CORE_SNAPSHOT_HPP
#define VASIM_CORE_SNAPSHOT_HPP

#include <optional>
#include <string>

#include "src/core/runner.hpp"
#include "src/snap/format.hpp"
#include "src/snap/io.hpp"

namespace vasim::core {

// Chunk tags.
inline constexpr u32 kChunkMeta = snap::chunk_tag("META");
inline constexpr u32 kChunkPipe = snap::chunk_tag("PIPE");
inline constexpr u32 kChunkTgen = snap::chunk_tag("TGEN");
inline constexpr u32 kChunkPred = snap::chunk_tag("PRED");
inline constexpr u32 kChunkChkr = snap::chunk_tag("CHKR");
inline constexpr u32 kChunkTral = snap::chunk_tag("TRAL");
inline constexpr u32 kChunkAdpt = snap::chunk_tag("ADPT");

/// META chunk version this build writes and reads.  v2 appended the
/// DvfsConfig; v1 snapshots predate adaptive clocking and are rejected
/// rather than guessed at.
inline constexpr u32 kMetaChunkVersion = 2;

/// CHKR chunk version this build writes and reads.  v2 dropped the
/// checker's cross-check of a second, coarser pipeline event bus; v1
/// payloads still carry those fields and are rejected.
inline constexpr u32 kCheckerChunkVersion = 2;

/// Decoded META chunk.
struct RunMeta {
  /// Fault-free-baseline capture (a `scheme == nullopt` run: no fault model, no
  /// predictors; `scheme` is ignored and PRED is absent).
  bool fault_free = false;
  workload::BenchmarkProfile profile;
  cpu::SchemeConfig scheme;  ///< valid when !fault_free
  double vdd = timing::SupplyPoints::kNominal;

  // Runner configuration at capture.  The warmup-relevant fields feed the
  // warmup key; `instructions` is informational (run_from measures with the
  // *resuming* runner's count).
  u64 instructions = 0;
  u64 warmup = 0;
  cpu::CoreConfig core;
  TepConfig tep;
  PredictorKind predictor = PredictorKind::kTep;
  bool check_semantics = false;
  u64 commit_trail_stride = 0;
  /// Adaptive-clock configuration at capture (META v2+).  Warmup-relevant:
  /// an adaptive controller steers the machine through warmup, so the key
  /// folds the whole struct and cross-policy warm starts are rejected.
  adapt::DvfsConfig dvfs;

  // Capture progress.
  u64 captured_committed = 0;  ///< committed instructions at the capture point
  u64 captured_cycle = 0;      ///< pipeline cycle at the capture point
  /// True when the capture happened after the warmup boundary: the
  /// measurement base below must be used verbatim (recomputing it from the
  /// restored state would measure from the capture point, not the boundary).
  bool base_captured = false;
  StatSet base;
  u64 base_committed = 0;
  u64 base_cycles = 0;

  /// Conservative warmup-compatibility key (see warmup_key below), stored so
  /// run_from and `vasim snap info` can validate without re-deriving configs.
  u64 warmup_key = 0;
};

/// A decoded run snapshot: the raw chunk container plus its META header.
class RunSnapshot {
 public:
  RunSnapshot() = default;
  /// Decodes META (and verifies PIPE/TGEN presence) from a validated
  /// container; throws snap::SnapshotError on a missing/short chunk.
  static RunSnapshot from_container(snap::Snapshot&& container);

  /// File round trip (delegates to snap::read/write_snapshot_file, so all
  /// magic/version/CRC validation applies before META is even parsed).
  static RunSnapshot read_file(const std::string& path);
  void write_file(const std::string& path) const;

  [[nodiscard]] const RunMeta& meta() const { return meta_; }
  [[nodiscard]] const snap::Snapshot& container() const { return container_; }
  [[nodiscard]] snap::Snapshot& container() { return container_; }

 private:
  snap::Snapshot container_;
  RunMeta meta_;
};

// META codec (exposed for tests and `vasim snap info`).
void put_run_meta(snap::Writer& w, const RunMeta& m);
RunMeta get_run_meta(snap::Reader& r);

// Config sub-codecs (shared by META and the warmup key).
void put_profile(snap::Writer& w, const workload::BenchmarkProfile& p);
workload::BenchmarkProfile get_profile(snap::Reader& r);
void put_core_config(snap::Writer& w, const cpu::CoreConfig& c);
cpu::CoreConfig get_core_config(snap::Reader& r);
void put_scheme(snap::Writer& w, const cpu::SchemeConfig& s);
cpu::SchemeConfig get_scheme(snap::Reader& r);
void put_tep_config(snap::Writer& w, const TepConfig& t);
TepConfig get_tep_config(snap::Reader& r);

/// Serialized warmup-identity: every knob that can influence machine state
/// at the warmup boundary.  Conservative by construction -- it includes the
/// full profile, core config, predictor configuration, warmup length,
/// checker and trail settings, and (for faulty runs) the scheme and supply.
/// Fault-free captures deliberately exclude vdd: with no fault model the
/// supply only affects post-run energy accounting, so baselines at different
/// supplies share one warmup.  `instructions` and EnergyParams are excluded
/// (measurement-only).
[[nodiscard]] std::string warmup_key_bytes(const RunnerConfig& cfg,
                                           const workload::BenchmarkProfile& profile,
                                           const std::optional<cpu::SchemeConfig>& scheme,
                                           double vdd);

/// FNV-1a hash of warmup_key_bytes (the value stored in META).
[[nodiscard]] u64 warmup_key(const RunnerConfig& cfg, const workload::BenchmarkProfile& profile,
                             const std::optional<cpu::SchemeConfig>& scheme, double vdd);

}  // namespace vasim::core

#endif  // VASIM_CORE_SNAPSHOT_HPP
