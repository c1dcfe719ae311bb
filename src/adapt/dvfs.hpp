// Adaptive-clocking (DVFS) configuration shared by the controllers, the
// runner plumbing and the CLI.
//
// The clock period is tracked in integer permille of the nominal period
// (1000 = today's fixed clock), so controller arithmetic, snapshots and
// checksums never depend on accumulated floating-point state.  A run's
// simulated wall time is the sum of the per-cycle period
// (`dvfs.wall_units`, in permille-cycles); throughput is then
// committed * 1000 / wall_units instructions per nominal cycle.
#ifndef VASIM_ADAPT_DVFS_HPP
#define VASIM_ADAPT_DVFS_HPP

#include <stdexcept>
#include <string>
#include <string_view>

#include "src/common/types.hpp"
#include "src/snap/io.hpp"

namespace vasim::adapt {

/// Closed-loop clock policy.  kStatic is bit-for-bit today's behavior: no
/// controller, no state-dependent delay model, period pinned at 1000.
enum class DvfsPolicy : u8 { kStatic = 0, kReactive = 1, kPredictive = 2 };

std::string_view to_string(DvfsPolicy p);

/// Parses a policy name; throws std::invalid_argument naming the knob.
DvfsPolicy dvfs_policy_from_string(std::string_view s);

struct DvfsConfig {
  DvfsPolicy policy = DvfsPolicy::kStatic;
  u64 epoch = 2000;                  ///< committed instructions per controller step
  u32 period_min_permille = 950;     ///< overclock floor
  u32 period_max_permille = 1120;    ///< underclock ceiling
  double target_violation_pct = 0.5; ///< epoch violation budget (% of commits)
  u32 quiet_epochs = 3;              ///< reactive: lower after this many quiet epochs
  u32 step_permille = 5;             ///< reactive step / predictive bucket width

  [[nodiscard]] bool adaptive() const { return policy != DvfsPolicy::kStatic; }
};

/// validate_core_config-style named errors for every controller knob.
void validate_dvfs_config(const DvfsConfig& cfg);

/// Stable codec, used by the snapshot META chunk and the warmup key.
void put_dvfs_config(snap::Writer& w, const DvfsConfig& cfg);
DvfsConfig get_dvfs_config(snap::Reader& r);

}  // namespace vasim::adapt

#endif  // VASIM_ADAPT_DVFS_HPP
