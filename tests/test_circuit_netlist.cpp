// Unit tests for the netlist representation and the component builders,
// verified functionally through the gate simulator, cross-validated against
// the ISA executor, and checked for the structural invariants every builder
// must keep.
#include <gtest/gtest.h>

#include <functional>

#include "src/circuit/builders.hpp"
#include "src/circuit/gatesim.hpp"
#include "src/circuit/scheduler_blocks.hpp"
#include "src/common/rng.hpp"
#include "src/isa/assembler.hpp"
#include "src/isa/executor.hpp"

namespace vasim::circuit {
namespace {

std::vector<u8> bits_of(u64 v, int w) {
  std::vector<u8> out;
  GateSim::pack_bits(v, w, out);
  return out;
}

TEST(Netlist, TopologicalConstructionEnforced) {
  Netlist n;
  const SigId a = n.add_input();
  const SigId b = n.add_input();
  const SigId x = n.and2(a, b);
  EXPECT_EQ(n.num_inputs(), 2);
  EXPECT_THROW(n.add_input(), std::logic_error);           // inputs after logic
  EXPECT_THROW(n.add_gate(GateKind::kAnd2, a, 99), std::invalid_argument);  // forward ref
  EXPECT_THROW(n.add_gate(GateKind::kInv, a, b), std::invalid_argument);    // arity
  EXPECT_THROW(n.add_gate(GateKind::kAnd2, a), std::invalid_argument);      // missing input
  (void)x;
}

TEST(Netlist, GateSemantics) {
  Netlist n;
  const SigId a = n.add_input();
  const SigId b = n.add_input();
  const SigId s = n.add_input();
  struct Case {
    SigId sig;
    int truth[8];  // indexed by a + 2b + 4s
  };
  std::vector<Case> cases = {
      {n.and2(a, b), {0, 0, 0, 1, 0, 0, 0, 1}},
      {n.or2(a, b), {0, 1, 1, 1, 0, 1, 1, 1}},
      {n.nand2(a, b), {1, 1, 1, 0, 1, 1, 1, 0}},
      {n.nor2(a, b), {1, 0, 0, 0, 1, 0, 0, 0}},
      {n.xor2(a, b), {0, 1, 1, 0, 0, 1, 1, 0}},
      {n.xnor2(a, b), {1, 0, 0, 1, 1, 0, 0, 1}},
      {n.inv(a), {1, 0, 1, 0, 1, 0, 1, 0}},
      {n.buf(a), {0, 1, 0, 1, 0, 1, 0, 1}},
      {n.mux2(a, b, s), {0, 1, 0, 1, 0, 0, 1, 1}},
  };
  GateSim sim(&n);
  for (int v = 0; v < 8; ++v) {
    const std::vector<u8> in = {static_cast<u8>(v & 1), static_cast<u8>((v >> 1) & 1),
                                static_cast<u8>((v >> 2) & 1)};
    sim.evaluate(in);
    for (const Case& c : cases) {
      EXPECT_EQ(sim.value(c.sig), c.truth[v] != 0) << "input " << v;
    }
  }
}

TEST(Netlist, RippleAddExhaustive4Bit) {
  Netlist n;
  const Bus a = n.add_input_bus(4);
  const Bus b = n.add_input_bus(4);
  const SigId cin = n.add_input();
  SigId cout = kNoSig;
  const Bus sum = n.ripple_add(a, b, cin, &cout);
  GateSim sim(&n);
  for (u64 x = 0; x < 16; ++x) {
    for (u64 y = 0; y < 16; ++y) {
      for (u64 c = 0; c < 2; ++c) {
        std::vector<u8> in;
        GateSim::pack_bits(x, 4, in);
        GateSim::pack_bits(y, 4, in);
        in.push_back(static_cast<u8>(c));
        sim.evaluate(in);
        const u64 expect = x + y + c;
        EXPECT_EQ(sim.read_bus(sum), expect & 0xF);
        EXPECT_EQ(sim.value(cout), ((expect >> 4) & 1) != 0);
      }
    }
  }
}

TEST(Netlist, WideReductionsAndEquality) {
  Netlist n;
  const Bus a = n.add_input_bus(9);
  const Bus b = n.add_input_bus(9);
  const SigId all = n.reduce_and(a);
  const SigId any = n.reduce_or(a);
  const SigId eq = n.equals(a, b);
  GateSim sim(&n);
  Pcg32 rng(42);
  for (int t = 0; t < 200; ++t) {
    const u64 x = rng.next_u64() & 0x1FF;
    const u64 y = rng.next_bool(0.3) ? x : (rng.next_u64() & 0x1FF);
    std::vector<u8> in;
    GateSim::pack_bits(x, 9, in);
    GateSim::pack_bits(y, 9, in);
    sim.evaluate(in);
    EXPECT_EQ(sim.value(all), x == 0x1FF);
    EXPECT_EQ(sim.value(any), x != 0);
    EXPECT_EQ(sim.value(eq), x == y);
  }
}

// ---- ALU ---------------------------------------------------------------

struct AluCase {
  AluOp op;
  const char* name;
};

class AluOps : public ::testing::TestWithParam<AluCase> {};

u64 alu_reference(AluOp op, u64 a, u64 b, int width) {
  const u64 mask = width == 64 ? ~0ULL : (1ULL << width) - 1;
  int sh_bits = 0;
  while ((1 << sh_bits) < width) ++sh_bits;
  const u64 sh = b & ((1ULL << sh_bits) - 1);
  const u64 sign = 1ULL << (width - 1);
  switch (op) {
    case AluOp::kAdd: return (a + b) & mask;
    case AluOp::kSub: return (a - b) & mask;
    case AluOp::kAnd: return a & b;
    case AluOp::kOr: return a | b;
    case AluOp::kXor: return a ^ b;
    case AluOp::kShl: return (a << sh) & mask;
    case AluOp::kShr: return (a & mask) >> sh;
    case AluOp::kSlt: {
      const i64 sa = static_cast<i64>((a ^ sign) - sign);
      const i64 sb = static_cast<i64>((b ^ sign) - sign);
      return sa < sb ? 1 : 0;
    }
  }
  return 0;
}

TEST_P(AluOps, MatchesReferenceOnRandomVectors) {
  const AluCase c = GetParam();
  constexpr int kWidth = 16;
  const Component alu = build_simple_alu(kWidth);
  GateSim sim(&alu.netlist);
  Pcg32 rng(2013);
  for (int t = 0; t < 300; ++t) {
    const u64 a = rng.next_u64() & 0xFFFF;
    const u64 b = rng.next_u64() & 0xFFFF;
    std::vector<u8> in;
    GateSim::pack_bits(a, kWidth, in);
    GateSim::pack_bits(b, kWidth, in);
    GateSim::pack_bits(static_cast<u64>(c.op), 3, in);
    sim.evaluate(in);
    const Bus result(alu.outputs.begin(), alu.outputs.begin() + kWidth);
    const u64 expect = alu_reference(c.op, a, b, kWidth);
    EXPECT_EQ(sim.read_bus(result), expect) << c.name << " a=" << a << " b=" << b;
    EXPECT_EQ(sim.value(alu.outputs.back()), expect == 0) << "zero flag";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, AluOps,
    ::testing::Values(AluCase{AluOp::kAdd, "add"}, AluCase{AluOp::kSub, "sub"},
                      AluCase{AluOp::kAnd, "and"}, AluCase{AluOp::kOr, "or"},
                      AluCase{AluOp::kXor, "xor"}, AluCase{AluOp::kShl, "shl"},
                      AluCase{AluOp::kShr, "shr"}, AluCase{AluOp::kSlt, "slt"}),
    [](const ::testing::TestParamInfo<AluCase>& info) { return info.param.name; });

TEST(IssueSelect, GrantsAtMostWidthAndOnlyRequesters) {
  const Component sel = build_issue_select(32, 4);
  GateSim sim(&sel.netlist);
  Pcg32 rng(5);
  for (int t = 0; t < 300; ++t) {
    std::vector<u8> req(32);
    for (auto& r : req) r = rng.next_bool(0.4);
    sim.evaluate(req);
    int grants = 0;
    for (int e = 0; e < 32; ++e) {
      const bool g = sim.value(sel.outputs[static_cast<std::size_t>(e)]);
      if (g) {
        ++grants;
        EXPECT_TRUE(req[static_cast<std::size_t>(e)]) << "granted a non-requester";
      }
    }
    EXPECT_LE(grants, 4);
  }
}

TEST(IssueSelect, SaturatedHalvesGrantFullWidth) {
  const Component sel = build_issue_select(32, 4);
  GateSim sim(&sel.netlist);
  std::vector<u8> req(32, 1);
  sim.evaluate(req);
  int grants = 0;
  for (const SigId s : sel.outputs) grants += sim.value(s);
  EXPECT_EQ(grants, 4);
}

TEST(IssueSelect, SingleGrantIsPriority) {
  const Component sel = build_issue_select(8, 1);
  GateSim sim(&sel.netlist);
  std::vector<u8> req(8, 0);
  req[3] = 1;
  req[6] = 1;
  sim.evaluate(req);
  EXPECT_TRUE(sim.value(sel.outputs[3]));
  EXPECT_FALSE(sim.value(sel.outputs[6]));
}

TEST(Agen, ComputesBasePlusSignExtendedOffset) {
  const Component agen = build_agen(32, 16);
  GateSim sim(&agen.netlist);
  Pcg32 rng(9);
  for (int t = 0; t < 300; ++t) {
    const u64 base = rng.next_u64() & 0xFFFFFFFF;
    const u64 off = rng.next_u64() & 0xFFFF;
    const u64 size = rng.next_below(4);
    std::vector<u8> in;
    GateSim::pack_bits(base, 32, in);
    GateSim::pack_bits(off, 16, in);
    GateSim::pack_bits(size, 2, in);
    sim.evaluate(in);
    const i64 soff = static_cast<i16>(off);
    const u64 expect = (base + static_cast<u64>(soff)) & 0xFFFFFFFF;
    const Bus addr(agen.outputs.begin(), agen.outputs.begin() + 32);
    EXPECT_EQ(sim.read_bus(addr), expect);
    // Misalignment: size 1=half, 2=word, 3=double.
    bool mis = false;
    if (size == 1) mis = expect & 1;
    if (size == 2) mis = expect & 3;
    if (size == 3) mis = expect & 7;
    EXPECT_EQ(sim.value(agen.outputs.back()), mis);
  }
}

TEST(ForwardCheck, MatchesTagsWithValids) {
  const int producers = 4, consumers = 4, tag_bits = 7;
  const Component fwd = build_forward_check(producers, consumers, tag_bits);
  GateSim sim(&fwd.netlist);
  Pcg32 rng(11);
  for (int t = 0; t < 200; ++t) {
    std::vector<u64> ptag(producers), stag(consumers * 2);
    std::vector<u8> pvalid(producers), svalid(consumers * 2);
    std::vector<u8> in;
    for (int p = 0; p < producers; ++p) {
      ptag[static_cast<std::size_t>(p)] = rng.next_below(16);  // small range forces matches
      GateSim::pack_bits(ptag[static_cast<std::size_t>(p)], tag_bits, in);
    }
    for (int p = 0; p < producers; ++p) {
      pvalid[static_cast<std::size_t>(p)] = rng.next_bool(0.7);
      in.push_back(pvalid[static_cast<std::size_t>(p)]);
    }
    for (int s = 0; s < consumers * 2; ++s) {
      stag[static_cast<std::size_t>(s)] = rng.next_below(16);
      GateSim::pack_bits(stag[static_cast<std::size_t>(s)], tag_bits, in);
    }
    for (int s = 0; s < consumers * 2; ++s) {
      svalid[static_cast<std::size_t>(s)] = rng.next_bool(0.8);
      in.push_back(svalid[static_cast<std::size_t>(s)]);
    }
    sim.evaluate(in);
    std::size_t out_idx = 0;
    for (int s = 0; s < consumers * 2; ++s) {
      bool any = false;
      for (int p = 0; p < producers; ++p) {
        const bool expect = svalid[static_cast<std::size_t>(s)] != 0 &&
                            pvalid[static_cast<std::size_t>(p)] != 0 &&
                            stag[static_cast<std::size_t>(s)] == ptag[static_cast<std::size_t>(p)];
        EXPECT_EQ(sim.value(fwd.outputs[out_idx++]), expect);
        any |= expect;
      }
      // The "any" outputs follow the fwd matrix.
      EXPECT_EQ(sim.value(fwd.outputs[static_cast<std::size_t>(consumers * 2 * producers + s)]),
                any);
    }
  }
}

TEST(Builders, ComponentShapesReasonable) {
  // Table 3 sanity: sizes in the right order and non-trivial depth.
  const Component alu = build_simple_alu(32);
  const Component sel = build_issue_select(32, 4);
  const Component agen = build_agen(32, 16);
  const Component fwd = build_forward_check(4, 4, 7);
  EXPECT_GT(alu.netlist.num_logic_gates(), agen.netlist.num_logic_gates());
  EXPECT_GT(agen.netlist.num_logic_gates(), 200);
  EXPECT_GT(fwd.netlist.num_logic_gates(), 200);
  EXPECT_GT(sel.netlist.num_logic_gates(), 100);
}

TEST(Builders, RejectDegenerateShapes) {
  EXPECT_THROW(build_simple_alu(1), std::invalid_argument);
  EXPECT_THROW(build_issue_select(0, 1), std::invalid_argument);
  EXPECT_THROW(build_agen(4, 16), std::invalid_argument);
  EXPECT_THROW(build_forward_check(0, 1, 1), std::invalid_argument);
}

TEST(Builders, ParameterizedWidths) {
  for (const int w : {8, 16, 32}) {
    const Component alu = build_simple_alu(w);
    EXPECT_EQ(static_cast<int>(alu.inputs.size()), 2 * w + 3);
    EXPECT_EQ(static_cast<int>(alu.outputs.size()), w + 1);
  }
  (void)bits_of(0, 1);
}

TEST(CrossValidation, GateLevelAluAgreesWithIsaExecutor) {
  // The same operation computed two ways: through the mini-ISA functional
  // core and through the synthesized 16-bit ALU netlist.
  const Component alu = build_simple_alu(16);
  GateSim sim(&alu.netlist);
  Pcg32 rng(99);
  const struct {
    AluOp gate_op;
    const char* mnemonic;
  } ops[] = {{AluOp::kAdd, "add"}, {AluOp::kSub, "sub"}, {AluOp::kAnd, "and"},
             {AluOp::kOr, "or"},   {AluOp::kXor, "xor"}};
  for (const auto& op : ops) {
    for (int t = 0; t < 20; ++t) {
      const u64 a = rng.next_u64() & 0xFFFF;
      const u64 b = rng.next_u64() & 0xFFFF;
      // ISA path.
      const isa::Program prog =
          isa::assemble(std::string(op.mnemonic) + " r3, r1, r2\nhalt\n");
      isa::FunctionalCore core(&prog);
      core.set_reg(1, a);
      core.set_reg(2, b);
      isa::DynInst d;
      while (core.next(d)) {
      }
      // Gate path.
      std::vector<u8> in;
      GateSim::pack_bits(a, 16, in);
      GateSim::pack_bits(b, 16, in);
      GateSim::pack_bits(static_cast<u64>(op.gate_op), 3, in);
      sim.evaluate(in);
      const Bus result(alu.outputs.begin(), alu.outputs.begin() + 16);
      EXPECT_EQ(sim.read_bus(result), core.reg(3) & 0xFFFF)
          << op.mnemonic << " a=" << a << " b=" << b;
    }
  }
}

/// Builders under test for the structural-invariant sweep.
using BuilderFn = std::function<Component()>;

class BuilderInvariants : public ::testing::TestWithParam<std::pair<const char*, BuilderFn>> {};

TEST_P(BuilderInvariants, NetlistIsWellFormed) {
  const Component c = GetParam().second();
  const Netlist& n = c.netlist;
  // 1. IO bookkeeping matches the netlist.
  EXPECT_EQ(static_cast<int>(c.inputs.size()), n.num_inputs());
  EXPECT_EQ(c.outputs.size(), n.outputs().size());
  for (const SigId s : n.outputs()) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, n.num_signals());
  }
  // 2. Topological ordering: every gate reads strictly earlier signals.
  for (SigId i = 0; i < n.num_signals(); ++i) {
    const Gate& g = n.gate(i);
    const int fanin = cell_info(g.kind).fanin;
    for (int k = 0; k < fanin; ++k) {
      EXPECT_GE(g.in[k], 0);
      EXPECT_LT(g.in[k], i);
    }
  }
  // 3. Evaluation is deterministic and total.
  GateSim sim(&n);
  std::vector<u8> zeros(static_cast<std::size_t>(n.num_inputs()), 0);
  const std::vector<u8> v1 = sim.evaluate(zeros);
  const std::vector<u8> v2 = sim.evaluate(zeros);
  EXPECT_EQ(v1, v2);
}

INSTANTIATE_TEST_SUITE_P(
    AllBuilders, BuilderInvariants,
    ::testing::Values(
        std::make_pair("alu32", BuilderFn([] { return build_simple_alu(32); })),
        std::make_pair("alu8", BuilderFn([] { return build_simple_alu(8); })),
        std::make_pair("issue_select", BuilderFn([] { return build_issue_select(32, 4); })),
        std::make_pair("agen", BuilderFn([] { return build_agen(32, 16); })),
        std::make_pair("forward_check", BuilderFn([] { return build_forward_check(4, 4, 7); })),
        std::make_pair("multiplier", BuilderFn([] { return build_array_multiplier(8); })),
        std::make_pair("lsq_cam", BuilderFn([] { return build_lsq_cam(24, 12); })),
        std::make_pair("wakeup_cam", BuilderFn([] { return build_wakeup_cam({}); })),
        std::make_pair("age_select", BuilderFn([] { return build_age_select({}); })),
        std::make_pair("countdown", BuilderFn([] { return build_countdown({}); })),
        std::make_pair("payload", BuilderFn([] { return build_payload({}); })),
        std::make_pair("vte_addon", BuilderFn([] { return build_vte_addon({}); })),
        std::make_pair("cdl", BuilderFn([] { return build_cdl({}); }))),
    [](const ::testing::TestParamInfo<std::pair<const char*, BuilderFn>>& info) {
      return info.param.first;
    });

}  // namespace
}  // namespace vasim::circuit
