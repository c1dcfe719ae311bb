// Tests for the dynamic gate-level analyses (sensitized-path delay, timed
// simulation, measured power) and the extra builders (array multiplier, LSQ
// CAM).
#include <gtest/gtest.h>

#include "src/circuit/dynamic.hpp"
#include "src/circuit/gatesim.hpp"
#include "src/circuit/sta.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"

namespace vasim::circuit {
namespace {

std::vector<u8> pack(std::initializer_list<std::pair<u64, int>> fields) {
  std::vector<u8> out;
  for (const auto& [value, width] : fields) GateSim::pack_bits(value, width, out);
  return out;
}

TEST(SensitizedDelay, ZeroWhenNothingToggles) {
  const Component alu = build_simple_alu(8);
  const auto in = pack({{5, 8}, {3, 8}, {0, 3}});
  const SensitizedDelay d = sensitized_delay(alu, in, in);
  EXPECT_EQ(d.toggled_gates, 0);
  EXPECT_DOUBLE_EQ(d.delay_ps, 0.0);
  EXPECT_EQ(d.endpoint, kNoSig);
}

TEST(SensitizedDelay, BoundedByStaticCriticalPath) {
  const Component alu = build_simple_alu(16);
  const double sta = analyze_nominal(alu.netlist).critical_delay_ps;
  Pcg32 rng(3);
  for (int t = 0; t < 50; ++t) {
    const auto pre = pack({{rng.next_u64() & 0xFFFF, 16}, {rng.next_u64() & 0xFFFF, 16},
                           {rng.next_below(8), 3}});
    const auto cur = pack({{rng.next_u64() & 0xFFFF, 16}, {rng.next_u64() & 0xFFFF, 16},
                           {rng.next_below(8), 3}});
    const SensitizedDelay d = sensitized_delay(alu, pre, cur);
    EXPECT_LE(d.delay_ps, sta + 1e-9);
    EXPECT_GE(d.delay_ps, 0.0);
  }
}

TEST(SensitizedDelay, CarryChainLongerThanLocalFlip) {
  // Adding 1 to 0xFF ripples the full carry chain; toggling a high operand
  // bit of an AND disturbs almost nothing.
  const Component alu = build_simple_alu(8);
  const auto pre_add = pack({{0xFF, 8}, {0, 8}, {0, 3}});
  const auto cur_add = pack({{0xFF, 8}, {1, 8}, {0, 3}});
  const SensitizedDelay ripple = sensitized_delay(alu, pre_add, cur_add);

  const auto pre_and = pack({{0x00, 8}, {0x0F, 8}, {2, 3}});
  const auto cur_and = pack({{0x80, 8}, {0x0F, 8}, {2, 3}});  // a7 flips, b7=0
  const SensitizedDelay local = sensitized_delay(alu, pre_and, cur_and);
  EXPECT_GT(ripple.delay_ps, local.delay_ps);
  EXPECT_GT(ripple.toggled_gates, local.toggled_gates);
}

TEST(SensitizedDelay, ProcessVariationPerturbsDelay) {
  const Component agen = build_agen(16, 8);
  const auto pre = pack({{100, 16}, {0, 8}, {0, 2}});
  const auto cur = pack({{100, 16}, {8, 8}, {0, 2}});
  const timing::ProcessVariation pv;
  const double nominal = sensitized_delay(agen, pre, cur).delay_ps;
  RunningStat s;
  for (u64 die = 0; die < 32; ++die) {
    s.add(sensitized_delay(agen, pre, cur, &pv, die).delay_ps);
  }
  EXPECT_GT(s.stddev(), 0.0);
  EXPECT_NEAR(s.mean(), nominal, 0.1 * nominal);
}

TEST(SensitizedDelay, InstanceStatsSummarize) {
  const Component alu = build_simple_alu(8);
  std::vector<std::pair<std::vector<u8>, std::vector<u8>>> inst;
  Pcg32 rng(7);
  for (int i = 0; i < 20; ++i) {
    inst.push_back({pack({{rng.next_u64() & 0xFF, 8}, {rng.next_u64() & 0xFF, 8}, {0, 3}}),
                    pack({{rng.next_u64() & 0xFF, 8}, {rng.next_u64() & 0xFF, 8}, {0, 3}})});
  }
  const InstanceDelayStats s = instance_delay_stats(alu, inst);
  EXPECT_EQ(s.instances, 20);
  EXPECT_GT(s.mu_ps, 0.0);
  EXPECT_GE(s.mu_plus_2sigma_ps, s.mu_ps);
  EXPECT_GE(s.max_ps, s.mu_ps);
}

TEST(TimedGateSim, SettleAndSensitizedDelayAgreeOnBoundsAndCorrelate) {
  // The two timing views differ in both directions: the sensitized delay is
  // a topological bound over the toggled cone (it ignores early-settling
  // controlling values), while the event-driven settle time is exact per
  // the transport model but includes dynamic hazards through gates whose
  // final value is unchanged.  Both stay within the static critical path
  // and must track each other closely on average.
  const Component agen = build_agen(16, 8);
  const double sta = analyze_nominal(agen.netlist).critical_delay_ps;
  TimedGateSim sim(&agen);
  Pcg32 rng(11);
  bool saw_hazard = false;
  bool saw_early_settle = false;
  RunningStat settle_stat, sens_stat;
  for (int t = 0; t < 40; ++t) {
    const auto pre = pack({{rng.next_u64() & 0xFFFF, 16}, {rng.next_u64() & 0xFF, 8},
                           {rng.next_below(4), 2}});
    const auto cur = pack({{rng.next_u64() & 0xFFFF, 16}, {rng.next_u64() & 0xFF, 8},
                           {rng.next_below(4), 2}});
    const TimedGateSim::Result r = sim.evaluate(pre, cur);
    const SensitizedDelay d = sensitized_delay(agen, pre, cur);
    EXPECT_LE(r.settle_ps, sta + 1e-6) << "iteration " << t;
    EXPECT_LE(d.delay_ps, sta + 1e-6) << "iteration " << t;
    settle_stat.add(r.settle_ps);
    sens_stat.add(d.delay_ps);
    saw_hazard |= r.settle_ps > d.delay_ps + 1e-6;
    saw_early_settle |= r.settle_ps < d.delay_ps - 1e-6;
  }
  EXPECT_TRUE(saw_hazard) << "carry-select muxing should produce dynamic hazards";
  EXPECT_TRUE(saw_early_settle) << "controlling values should settle some cones early";
  EXPECT_NEAR(settle_stat.mean(), sens_stat.mean(), 0.5 * sens_stat.mean());
}

TEST(TimedGateSim, CountsTransitionsAndEnergy) {
  const Component alu = build_simple_alu(8);
  TimedGateSim sim(&alu);
  const auto pre = pack({{0x00, 8}, {0x00, 8}, {0, 3}});
  const auto cur = pack({{0xFF, 8}, {0x01, 8}, {0, 3}});
  const TimedGateSim::Result r = sim.evaluate(pre, cur);
  EXPECT_GT(r.transitions, 20u);
  EXPECT_GT(r.dynamic_energy_fj, 10.0);
  const TimedGateSim::Result none = sim.evaluate(pre, pre);
  EXPECT_EQ(none.transitions, 0u);
  EXPECT_DOUBLE_EQ(none.settle_ps, 0.0);
}

TEST(TimedGateSim, GlitchesOnRipplePaths) {
  // A long carry ripple makes intermediate sum bits change more than once.
  const Component mult = build_array_multiplier(6);
  TimedGateSim sim(&mult);
  const auto pre = pack({{0, 6}, {0, 6}});
  const auto cur = pack({{63, 6}, {63, 6}});
  const TimedGateSim::Result r = sim.evaluate(pre, cur);
  EXPECT_GT(r.glitches, 0u) << "array multipliers glitch by construction";
  EXPECT_GT(r.transitions, r.glitches);
}

TEST(TimedGateSim, RejectsBadWidth) {
  const Component sel = build_issue_select(8, 1);
  TimedGateSim sim(&sel);
  EXPECT_THROW(sim.evaluate(std::vector<u8>(3, 0), std::vector<u8>(3, 0)),
               std::invalid_argument);
}

TEST(MeasuredPower, ActivityRaisesDynamicPower) {
  const Component agen = build_agen(16, 8);
  Pcg32 rng(5);
  std::vector<std::pair<std::vector<u8>, std::vector<u8>>> busy, idle;
  for (int i = 0; i < 10; ++i) {
    const auto quiet = pack({{123, 16}, {4, 8}, {0, 2}});
    idle.push_back({quiet, quiet});
    busy.push_back({pack({{rng.next_u64() & 0xFFFF, 16}, {rng.next_u64() & 0xFF, 8}, {0, 2}}),
                    pack({{rng.next_u64() & 0xFFFF, 16}, {rng.next_u64() & 0xFF, 8}, {0, 2}})});
  }
  const PowerReport p_busy = measured_power(agen, busy);
  const PowerReport p_idle = measured_power(agen, idle);
  EXPECT_GT(p_busy.dynamic_power_uw, p_idle.dynamic_power_uw);
  EXPECT_DOUBLE_EQ(p_busy.leakage_power_uw, p_idle.leakage_power_uw);
}

// ---- extra builders --------------------------------------------------------

TEST(ArrayMultiplier, MatchesReference) {
  const Component mult = build_array_multiplier(8);
  GateSim sim(&mult.netlist);
  Pcg32 rng(17);
  for (int t = 0; t < 200; ++t) {
    const u64 a = rng.next_u64() & 0xFF;
    const u64 b = rng.next_u64() & 0xFF;
    sim.evaluate(pack({{a, 8}, {b, 8}}));
    EXPECT_EQ(sim.read_bus(mult.outputs), a * b) << a << "*" << b;
  }
}

TEST(ArrayMultiplier, ShapeChecks) {
  EXPECT_THROW(build_array_multiplier(1), std::invalid_argument);
  EXPECT_THROW(build_array_multiplier(32), std::invalid_argument);
  const Component m4 = build_array_multiplier(4);
  EXPECT_EQ(m4.outputs.size(), 8u);
}

TEST(LsqCam, MatchSemantics) {
  const Component cam = build_lsq_cam(4, 6);
  GateSim sim(&cam.netlist);
  // search = 33; entries: {33 valid older, 33 valid !older, 12 valid older,
  // 33 !valid older}.
  std::vector<u8> in;
  GateSim::pack_bits(33, 6, in);
  for (const u64 tag : {33, 33, 12, 33}) GateSim::pack_bits(tag, 6, in);
  for (const u8 v : {1, 1, 1, 0}) in.push_back(v);
  for (const u8 o : {1, 0, 1, 1}) in.push_back(o);
  sim.evaluate(in);
  EXPECT_TRUE(sim.value(cam.outputs[0]));
  EXPECT_FALSE(sim.value(cam.outputs[1]));  // younger
  EXPECT_FALSE(sim.value(cam.outputs[2]));  // tag mismatch
  EXPECT_FALSE(sim.value(cam.outputs[3]));  // invalid
  EXPECT_TRUE(sim.value(cam.outputs[4]));   // any_match
  EXPECT_GT(cam.flop_count, 0);
}

TEST(LsqCam, NoMatchNoAny) {
  const Component cam = build_lsq_cam(3, 5);
  GateSim sim(&cam.netlist);
  std::vector<u8> in;
  GateSim::pack_bits(7, 5, in);
  for (const u64 tag : {1, 2, 3}) GateSim::pack_bits(tag, 5, in);
  for (int i = 0; i < 6; ++i) in.push_back(1);  // all valid, all older
  sim.evaluate(in);
  EXPECT_FALSE(sim.value(cam.outputs.back()));
}

}  // namespace
}  // namespace vasim::circuit
