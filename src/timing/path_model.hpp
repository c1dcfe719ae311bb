// Per-PC sensitized-path model.
//
// Supplement S1 of the paper shows that the many dynamic instances of one
// static instruction sensitize strikingly similar logic paths (87-92%
// commonality), so each static PC has a characteristic critical-path delay
// per pipe stage.  We capture that with a deterministic, hash-derived "path
// factor" per PC: the ratio of the PC's mu+2sigma sensitized-path delay to
// the clock period at the nominal (zero-fault) supply.  A PC whose scaled
// factor exceeds 1.0 at a reduced supply suffers a timing violation -- and
// because the factor is a per-PC constant, violations recur and are
// predictable, which is the property the whole paper builds on.
#ifndef VASIM_TIMING_PATH_MODEL_HPP
#define VASIM_TIMING_PATH_MODEL_HPP

#include "src/common/rng.hpp"
#include "src/common/types.hpp"
#include "src/timing/memo.hpp"
#include "src/timing/stage.hpp"
#include "src/timing/voltage.hpp"

namespace vasim::timing {

/// Broad instruction classes that determine which OoO stages a PC's critical
/// path can live in (loads/stores exercise the LSQ CAM, ALU-like ops the
/// functional units).
enum class FaultClass { kAluLike = 0, kMemLike = 1 };

/// Calibration knobs for one workload's path-factor population.
struct PathModelConfig {
  u64 seed = 1;
  /// Target dynamic fraction of OoO-engine instructions violating timing at
  /// the high-fault supply (0.97 V); Table 1 reports 5.6-10.5% per benchmark.
  double p_faulty_high = 0.08;
  /// Target at the low-fault supply (1.04 V); Table 1 reports 1.4-2.3%.
  double p_faulty_low = 0.02;
};

/// The per-PC constants of one static instruction.  No member initializers:
/// MemoTable relies on trivial default construction.
struct PathTerms {
  double factor;  ///< see SensitizedPathModel::path_factor
  OooStage alu_stage;
  OooStage mem_stage;

  [[nodiscard]] OooStage stage(FaultClass cls) const {
    return cls == FaultClass::kMemLike ? mem_stage : alu_stage;
  }
};

/// Deterministic per-PC path population.
///
/// The per-PC terms are pure in (seed, pc), so they are computed once per
/// static PC into a lazily filled table (a hit returns the bits a fresh
/// computation would).  Not thread-safe: the const queries fill the table.
class SensitizedPathModel {
 public:
  SensitizedPathModel(const PathModelConfig& cfg, const VoltageModel& vm);

  /// Path factor and both faulty stages of `pc` (one table lookup).
  [[nodiscard]] const PathTerms& terms(Pc pc) const {
    // Static PCs are 4-byte aligned: index by instruction slot, so a
    // contiguous code footprint of up to 2^13 instructions (32 KiB, above
    // every profile's) never collides.
    return table_.get(pc, pc >> 2, [this](Pc key) { return compute_terms(key); });
  }

  /// mu+2sigma path delay of `pc`, as a fraction of the nominal-supply clock
  /// period.  In (0, 0.97]; values above ~0.956 violate at 1.04 V, values
  /// above ~0.90 violate at 0.97 V.
  [[nodiscard]] double path_factor(Pc pc) const { return terms(pc).factor; }

  /// The OoO stage hosting this PC's critical path (per-PC constant;
  /// distribution skewed towards wakeup/select per Section 3.3.1).
  [[nodiscard]] OooStage faulty_stage(Pc pc, FaultClass cls) const {
    return terms(pc).stage(cls);
  }

  /// Sensitized-path commonality of this PC (S1): fraction of gates toggled
  /// by every dynamic instance among gates toggled by any instance.
  [[nodiscard]] double commonality(Pc pc) const;

  /// True when the deterministic part of the model marks `pc` faulty at
  /// supply scale `delay_scale` (no environmental modulation).
  [[nodiscard]] bool core_faulty(Pc pc, double delay_scale) const {
    return path_factor(pc) * delay_scale > 1.0;
  }

  [[nodiscard]] const PathModelConfig& config() const { return cfg_; }

 private:
  // FaultModel derives its in-order terms from compute_factor on hashed
  // keys, which must not evict or alias the static PCs' entries.
  friend class FaultModel;

  [[nodiscard]] double compute_factor(Pc pc) const;
  [[nodiscard]] PathTerms compute_terms(Pc pc) const;

  PathModelConfig cfg_;
  // Derived band geometry (see .cpp): fractions of the PC population landing
  // in the always-faulty / modulation-sensitive bands at each supply.
  double band_both_;        // population mass faulting at both reduced supplies
  double band_high_only_;   // mass faulting only at the 0.97 V supply
  double theta_low_;        // 1 / delay_scale(1.04 V)
  double theta_high_;       // 1 / delay_scale(0.97 V)
  mutable MemoTable<PathTerms, 13> table_;
};

}  // namespace vasim::timing

#endif  // VASIM_TIMING_PATH_MODEL_HPP
