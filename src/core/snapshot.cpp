#include "src/core/snapshot.hpp"

namespace vasim::core {
namespace {

u64 fnv1a(const std::string& bytes) {
  u64 h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

u8 predictor_code(PredictorKind k) { return static_cast<u8>(k); }

PredictorKind predictor_from_code(u8 v) {
  if (v > static_cast<u8>(PredictorKind::kTvp)) {
    throw snap::SnapshotError("unknown predictor kind " + std::to_string(v));
  }
  return static_cast<PredictorKind>(v);
}

void put_cache_config(snap::Writer& w, const cpu::CacheConfig& c) {
  w.put_u64(c.size_bytes);
  w.put_i32(c.ways);
  w.put_i32(c.line_bytes);
  w.put_u64(c.latency);
}

cpu::CacheConfig get_cache_config(snap::Reader& r) {
  cpu::CacheConfig c;
  c.size_bytes = r.get_u64();
  c.ways = r.get_i32();
  c.line_bytes = r.get_i32();
  c.latency = r.get_u64();
  return c;
}

}  // namespace

void put_profile(snap::Writer& w, const workload::BenchmarkProfile& p) {
  w.put_str(p.name);
  w.put_f64(p.f_load);
  w.put_f64(p.f_store);
  w.put_f64(p.f_branch);
  w.put_f64(p.f_mul);
  w.put_f64(p.f_div);
  w.put_f64(p.branch_taken_bias);
  w.put_f64(p.branch_random_frac);
  w.put_f64(p.serial_frac);
  w.put_f64(p.dep_geo_p);
  w.put_f64(p.hub_frac);
  w.put_f64(p.slack_frac);
  w.put_u64(p.ws_hot_bytes);
  w.put_u64(p.ws_warm_bytes);
  w.put_u64(p.ws_cold_bytes);
  w.put_f64(p.warm_frac);
  w.put_f64(p.cold_frac);
  w.put_f64(p.cold_random_frac);
  w.put_i32(p.num_blocks);
  w.put_i32(p.block_len_min);
  w.put_i32(p.block_len_max);
  w.put_f64(p.fr_high_pct);
  w.put_f64(p.fr_low_pct);
  w.put_f64(p.fr_calib_high);
  w.put_f64(p.fr_calib_low);
  w.put_f64(p.paper_ipc);
  w.put_u64(p.seed);
}

workload::BenchmarkProfile get_profile(snap::Reader& r) {
  workload::BenchmarkProfile p;
  p.name = r.get_str();
  p.f_load = r.get_f64();
  p.f_store = r.get_f64();
  p.f_branch = r.get_f64();
  p.f_mul = r.get_f64();
  p.f_div = r.get_f64();
  p.branch_taken_bias = r.get_f64();
  p.branch_random_frac = r.get_f64();
  p.serial_frac = r.get_f64();
  p.dep_geo_p = r.get_f64();
  p.hub_frac = r.get_f64();
  p.slack_frac = r.get_f64();
  p.ws_hot_bytes = r.get_u64();
  p.ws_warm_bytes = r.get_u64();
  p.ws_cold_bytes = r.get_u64();
  p.warm_frac = r.get_f64();
  p.cold_frac = r.get_f64();
  p.cold_random_frac = r.get_f64();
  p.num_blocks = r.get_i32();
  p.block_len_min = r.get_i32();
  p.block_len_max = r.get_i32();
  p.fr_high_pct = r.get_f64();
  p.fr_low_pct = r.get_f64();
  p.fr_calib_high = r.get_f64();
  p.fr_calib_low = r.get_f64();
  p.paper_ipc = r.get_f64();
  p.seed = r.get_u64();
  return p;
}

void put_core_config(snap::Writer& w, const cpu::CoreConfig& c) {
  w.put_i32(c.fetch_width);
  w.put_i32(c.dispatch_width);
  w.put_i32(c.issue_width);
  w.put_i32(c.commit_width);
  w.put_i32(c.rob_entries);
  w.put_i32(c.iq_entries);
  w.put_i32(c.lq_entries);
  w.put_i32(c.sq_entries);
  w.put_i32(c.phys_regs);
  w.put_i32(c.frontend_depth);
  w.put_i32(c.replay_recovery);
  w.put_i32(c.simple_alus);
  w.put_i32(c.complex_alus);
  w.put_i32(c.branch_units);
  w.put_i32(c.load_ports);
  w.put_i32(c.store_ports);
  w.put_u64(c.mul_latency);
  w.put_u64(c.div_latency);
  w.put_i32(c.gshare_bits);
  w.put_i32(c.btb_entries);
  put_cache_config(w, c.l1i);
  put_cache_config(w, c.l1d);
  put_cache_config(w, c.l2);
  w.put_u64(c.memory_latency);
  w.put_bool(c.l2_next_line_prefetch);
  w.put_bool(c.model_wrong_path);
  w.put_u64(c.watchdog_cycles);
  // Scheduler-kernel byte: 0 is the issue window, the only kernel there is.
  // Kept so the META layout does not change.
  w.put_u8(0);
}

cpu::CoreConfig get_core_config(snap::Reader& r) {
  cpu::CoreConfig c;
  c.fetch_width = r.get_i32();
  c.dispatch_width = r.get_i32();
  c.issue_width = r.get_i32();
  c.commit_width = r.get_i32();
  c.rob_entries = r.get_i32();
  c.iq_entries = r.get_i32();
  c.lq_entries = r.get_i32();
  c.sq_entries = r.get_i32();
  c.phys_regs = r.get_i32();
  c.frontend_depth = r.get_i32();
  c.replay_recovery = r.get_i32();
  c.simple_alus = r.get_i32();
  c.complex_alus = r.get_i32();
  c.branch_units = r.get_i32();
  c.load_ports = r.get_i32();
  c.store_ports = r.get_i32();
  c.mul_latency = r.get_u64();
  c.div_latency = r.get_u64();
  c.gshare_bits = r.get_i32();
  c.btb_entries = r.get_i32();
  c.l1i = get_cache_config(r);
  c.l1d = get_cache_config(r);
  c.l2 = get_cache_config(r);
  c.memory_latency = r.get_u64();
  c.l2_next_line_prefetch = r.get_bool();
  c.model_wrong_path = r.get_bool();
  c.watchdog_cycles = r.get_u64();
  const u8 kernel = r.get_u8();
  if (kernel == 1) {
    throw snap::SnapshotError(
        "snapshot uses the delay-queue scheduler kernel, which was removed");
  }
  if (kernel != 0) throw snap::SnapshotError("unknown scheduler kernel in snapshot");
  return c;
}

void put_scheme(snap::Writer& w, const cpu::SchemeConfig& s) {
  w.put_str(s.name);
  w.put_bool(s.use_predictor);
  w.put_bool(s.vte);
  w.put_bool(s.error_padding);
  w.put_u8(static_cast<u8>(s.policy));
  w.put_u8(static_cast<u8>(s.recovery));
  w.put_u64(s.micro_stall_cycles);
  w.put_i32(s.criticality_threshold);
  w.put_f64(s.inorder_fault_scale);
}

cpu::SchemeConfig get_scheme(snap::Reader& r) {
  cpu::SchemeConfig s;
  s.name = r.get_str();
  s.use_predictor = r.get_bool();
  s.vte = r.get_bool();
  s.error_padding = r.get_bool();
  const u8 policy = r.get_u8();
  if (policy > static_cast<u8>(cpu::SelectPolicy::kCriticalityDriven)) {
    throw snap::SnapshotError("unknown select policy " + std::to_string(policy));
  }
  s.policy = static_cast<cpu::SelectPolicy>(policy);
  const u8 recovery = r.get_u8();
  if (recovery > static_cast<u8>(cpu::RecoveryModel::kMicroStall)) {
    throw snap::SnapshotError("unknown recovery model " + std::to_string(recovery));
  }
  s.recovery = static_cast<cpu::RecoveryModel>(recovery);
  s.micro_stall_cycles = r.get_u64();
  s.criticality_threshold = r.get_i32();
  s.inorder_fault_scale = r.get_f64();
  return s;
}

void put_tep_config(snap::Writer& w, const TepConfig& t) {
  w.put_i32(t.entries);
  w.put_i32(t.history_bits);
  w.put_u8(t.counter_max);
  w.put_u8(t.counter_on_alloc);
  w.put_bool(t.sensor_gating);
}

TepConfig get_tep_config(snap::Reader& r) {
  TepConfig t;
  t.entries = r.get_i32();
  t.history_bits = r.get_i32();
  t.counter_max = r.get_u8();
  t.counter_on_alloc = r.get_u8();
  t.sensor_gating = r.get_bool();
  return t;
}

void put_run_meta(snap::Writer& w, const RunMeta& m) {
  w.put_bool(m.fault_free);
  put_profile(w, m.profile);
  if (!m.fault_free) put_scheme(w, m.scheme);
  w.put_f64(m.vdd);
  w.put_u64(m.instructions);
  w.put_u64(m.warmup);
  put_core_config(w, m.core);
  put_tep_config(w, m.tep);
  w.put_u8(predictor_code(m.predictor));
  w.put_bool(m.check_semantics);
  w.put_u64(m.commit_trail_stride);
  adapt::put_dvfs_config(w, m.dvfs);
  w.put_u64(m.captured_committed);
  w.put_u64(m.captured_cycle);
  w.put_bool(m.base_captured);
  snap::put_statset(w, m.base);
  w.put_u64(m.base_committed);
  w.put_u64(m.base_cycles);
  w.put_u64(m.warmup_key);
}

RunMeta get_run_meta(snap::Reader& r) {
  RunMeta m;
  m.fault_free = r.get_bool();
  m.profile = get_profile(r);
  if (!m.fault_free) m.scheme = get_scheme(r);
  m.vdd = r.get_f64();
  m.instructions = r.get_u64();
  m.warmup = r.get_u64();
  m.core = get_core_config(r);
  m.tep = get_tep_config(r);
  m.predictor = predictor_from_code(r.get_u8());
  m.check_semantics = r.get_bool();
  m.commit_trail_stride = r.get_u64();
  m.dvfs = adapt::get_dvfs_config(r);
  m.captured_committed = r.get_u64();
  m.captured_cycle = r.get_u64();
  m.base_captured = r.get_bool();
  m.base = snap::get_statset(r);
  m.base_committed = r.get_u64();
  m.base_cycles = r.get_u64();
  m.warmup_key = r.get_u64();
  return m;
}

RunSnapshot RunSnapshot::from_container(snap::Snapshot&& container) {
  RunSnapshot s;
  s.container_ = std::move(container);
  const snap::Chunk& meta = s.container_.require(kChunkMeta);
  if (meta.version != kMetaChunkVersion) {
    throw snap::SnapshotError("META chunk version " + std::to_string(meta.version) +
                              " (this build reads " + std::to_string(kMetaChunkVersion) + ")");
  }
  snap::Reader r(meta.payload);
  s.meta_ = get_run_meta(r);
  r.expect_done("META chunk");
  // Fail fast on a container that validates but cannot possibly resume.
  (void)s.container_.require(kChunkPipe);
  (void)s.container_.require(kChunkTgen);
  return s;
}

RunSnapshot RunSnapshot::read_file(const std::string& path) {
  return from_container(snap::read_snapshot_file(path));
}

void RunSnapshot::write_file(const std::string& path) const {
  snap::write_snapshot_file(path, container_);
}

std::string warmup_key_bytes(const RunnerConfig& cfg, const workload::BenchmarkProfile& profile,
                             const std::optional<cpu::SchemeConfig>& scheme, double vdd) {
  snap::Writer w;
  put_profile(w, profile);
  put_core_config(w, cfg.core);
  put_tep_config(w, cfg.tep);
  w.put_u8(predictor_code(cfg.predictor));
  w.put_u64(cfg.warmup);
  w.put_bool(cfg.check_semantics);
  w.put_u64(cfg.commit_trail_stride);
  w.put_bool(!scheme.has_value());
  if (scheme) {
    put_scheme(w, *scheme);
    w.put_f64(vdd);
    // Adaptive clocking only engages on scheme runs; folding the config here
    // keeps fault-free baselines sharing one warmup across dvfs settings.
    adapt::put_dvfs_config(w, cfg.dvfs);
  }
  const std::vector<unsigned char> bytes = w.take();
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

u64 warmup_key(const RunnerConfig& cfg, const workload::BenchmarkProfile& profile,
               const std::optional<cpu::SchemeConfig>& scheme, double vdd) {
  return fnv1a(warmup_key_bytes(cfg, profile, scheme, vdd));
}

}  // namespace vasim::core
