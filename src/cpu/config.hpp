// Core configuration mirroring Fabscalar Core-1 (Section 4.1/4.2): a 4-wide
// out-of-order pipeline with a 10-stage fetch-to-execute mispredict loop,
// 32-entry issue queue, 96 physical registers, and a two-level cache
// hierarchy (split 32 KB L1 at 1 cycle, 8 MB L2 at 25 cycles, memory at 240).
#ifndef VASIM_CPU_CONFIG_HPP
#define VASIM_CPU_CONFIG_HPP

#include "src/common/types.hpp"

namespace vasim::cpu {

/// Cache geometry + latency.
struct CacheConfig {
  u64 size_bytes = 32 * 1024;
  int ways = 4;
  int line_bytes = 64;
  Cycle latency = 1;
};

/// Validates one cache level's geometry with errors that name the level and
/// the field (throws std::invalid_argument): `line_bytes` a power of two,
/// `ways` in [1, 255] (`Cache` keeps a one-byte recency rank per line and
/// reserves 0xFF for a line never filled), `size_bytes` at most 1 GiB and a
/// power-of-two number of sets.  `level` is the name the error uses ("l2").
void validate_cache_config(const CacheConfig& cfg, const char* level);

/// Whole-core configuration.
struct CoreConfig {
  // Widths (Core-1 is uniformly 4-wide).
  int fetch_width = 4;
  int dispatch_width = 4;
  int issue_width = 4;
  int commit_width = 4;

  // Window sizes.
  int rob_entries = 128;
  int iq_entries = 32;
  int lq_entries = 24;
  int sq_entries = 24;
  int phys_regs = 96;

  // Front-end depth in cycles from fetch to dispatch-complete.  With issue,
  // register read and execute this yields the paper's 10-stage
  // fetch-to-execute mispredict loop: fetch(2) decode(2) rename(1)
  // dispatch(1) wakeup/select(1+1) regread(1) execute(1).
  int frontend_depth = 7;
  /// Extra cycles to restart fetch after a replay recovery (rename-map
  /// restore + refetch handshake).
  int replay_recovery = 3;

  // Functional units.
  int simple_alus = 2;   ///< 1-cycle, fully pipelined
  int complex_alus = 1;  ///< mul 3-cycle pipelined; div 12-cycle unpipelined
  int branch_units = 1;
  int load_ports = 1;
  int store_ports = 1;
  Cycle mul_latency = 3;
  Cycle div_latency = 12;

  // Branch prediction.
  int gshare_bits = 14;   ///< table = 2^bits 2-bit counters
  int btb_entries = 2048;

  // Caches (paper Section 4.2).
  CacheConfig l1i{32 * 1024, 4, 64, 1};
  CacheConfig l1d{32 * 1024, 4, 64, 1};
  CacheConfig l2{8 * 1024 * 1024, 16, 64, 25};
  Cycle memory_latency = 240;
  /// Next-line prefetch into L2 on every demand L1D miss.  Off by default
  /// (the paper's hierarchy has no prefetcher); used by the ablation bench
  /// to show how shrinking memory slack exposes the VTE's extra cycle.
  bool l2_next_line_prefetch = false;

  /// Model wrong-path execution after branch mispredicts: fetch continues
  /// down the predicted path with synthesized instructions that consume
  /// fetch/issue/execute resources, pollute the caches and burn energy until
  /// the branch resolves and squashes them.  Off by default (the baseline
  /// calibration uses fetch-stall mispredict handling); exercised by tests
  /// and the ablation bench.
  bool model_wrong_path = false;

  /// Abort knob: cycles without a commit before the pipeline declares a
  /// deadlock (correctness invariant, exercised by tests).
  Cycle watchdog_cycles = 100'000;
};

/// Validates the scheduling-structure geometry with named errors (throws
/// std::invalid_argument).  These constraints used to be implicit in
/// next_pow2_u32 and slot masking; an out-of-range config would silently
/// degrade (an issue queue larger than the ROB can never fill) or overflow.
/// Each cache level goes through validate_cache_config.
/// Called by the Pipeline constructor; callers building configs from
/// user-supplied knobs (CLI, sweeps) can call it early for a better error.
void validate_core_config(const CoreConfig& cfg);

}  // namespace vasim::cpu

#endif  // VASIM_CPU_CONFIG_HPP
