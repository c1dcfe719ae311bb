#include "src/cpu/config.hpp"

#include <stdexcept>
#include <string>

#include "src/isa/program.hpp"

namespace vasim::cpu {

namespace {
[[nodiscard]] bool is_pow2(u64 v) { return v > 0 && (v & (v - 1)) == 0; }
constexpr u64 kMaxCacheBytes = u64{1} << 30;
constexpr int kMaxCacheWays = 255;
}  // namespace

void validate_cache_config(const CacheConfig& cfg, const char* level) {
  const std::string name = std::string("CacheConfig: ") + level + ".";
  if (cfg.line_bytes <= 0 || !is_pow2(static_cast<u64>(cfg.line_bytes))) {
    throw std::invalid_argument(name + "line_bytes must be a power of two (got " +
                                std::to_string(cfg.line_bytes) + ")");
  }
  if (cfg.ways < 1 || cfg.ways > kMaxCacheWays) {
    throw std::invalid_argument(name + "ways out of range [1, " + std::to_string(kMaxCacheWays) +
                                "] (got " + std::to_string(cfg.ways) + ")");
  }
  if (cfg.size_bytes > kMaxCacheBytes) {
    throw std::invalid_argument(name + "size_bytes exceeds 1 GiB (got " +
                                std::to_string(cfg.size_bytes) + ")");
  }
  const u64 set_bytes = static_cast<u64>(cfg.line_bytes) * static_cast<u64>(cfg.ways);
  if (cfg.size_bytes % set_bytes != 0 || !is_pow2(cfg.size_bytes / set_bytes)) {
    throw std::invalid_argument(name + "size_bytes must be a power-of-two number of sets of " +
                                std::to_string(set_bytes) + " bytes (got " +
                                std::to_string(cfg.size_bytes) + ")");
  }
}

void validate_core_config(const CoreConfig& cfg) {
  // Slot addressing is seq & (next_pow2(rob)-1) over u32 sequence bits; keep
  // the capacity comfortably inside that and the arena-size arithmetic.
  constexpr int kMaxRob = 64 * 1024;
  if (cfg.rob_entries < 1 || cfg.rob_entries > kMaxRob) {
    throw std::invalid_argument("CoreConfig: rob_entries out of range [1, " +
                                std::to_string(kMaxRob) + "]");
  }
  if (cfg.iq_entries <= 0 || !is_pow2(static_cast<u64>(cfg.iq_entries))) {
    throw std::invalid_argument(
        "CoreConfig: iq_entries must be a power of two (got " +
        std::to_string(cfg.iq_entries) + ")");
  }
  // iq_entries > rob_entries is allowed: the queue count is a dispatch gate,
  // the window itself is sized by rob_entries, so an oversized gate simply
  // never binds (small-ROB studies shrink rob below the default iq).
  if (cfg.lq_entries < 1 || cfg.sq_entries < 1) {
    throw std::invalid_argument("CoreConfig: lq_entries/sq_entries must be positive");
  }
  if (cfg.phys_regs < isa::kNumArchRegs + cfg.dispatch_width) {
    // Renaming needs the full architectural file plus one new mapping per
    // dispatch slot, or dispatch wedges on an empty free list.
    throw std::invalid_argument(
        "CoreConfig: phys_regs (" + std::to_string(cfg.phys_regs) +
        ") must be at least arch regs + dispatch_width (" +
        std::to_string(isa::kNumArchRegs + cfg.dispatch_width) + ")");
  }
  validate_cache_config(cfg.l1i, "l1i");
  validate_cache_config(cfg.l1d, "l1d");
  validate_cache_config(cfg.l2, "l2");
}

}  // namespace vasim::cpu
