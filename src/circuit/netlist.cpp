#include "src/circuit/netlist.hpp"

#include <stdexcept>

namespace vasim::circuit {

SigId Netlist::add_input() {
  if (!gates_.empty() && gates_.back().kind != GateKind::kInput) {
    throw std::logic_error("Netlist: inputs must be added before logic gates");
  }
  gates_.push_back(Gate{GateKind::kInput, {kNoSig, kNoSig, kNoSig}});
  ++num_inputs_;
  return static_cast<SigId>(gates_.size() - 1);
}

SigId Netlist::add_gate(GateKind kind, SigId a, SigId b, SigId c) {
  if (kind == GateKind::kInput) throw std::invalid_argument("use add_input()");
  const int fanin = cell_info(kind).fanin;
  const SigId next = static_cast<SigId>(gates_.size());
  const SigId ins[3] = {a, b, c};
  for (int i = 0; i < 3; ++i) {
    if (i < fanin) {
      if (ins[i] == kNoSig || ins[i] >= next) {
        throw std::invalid_argument("Netlist: gate input missing or forward reference");
      }
    } else if (ins[i] != kNoSig) {
      throw std::invalid_argument("Netlist: too many inputs for cell");
    }
  }
  gates_.push_back(Gate{kind, {a, b, c}});
  if (kind != GateKind::kConst0 && kind != GateKind::kConst1) ++num_logic_;
  return next;
}

void Netlist::mark_output(SigId s) {
  if (s < 0 || s >= num_signals()) throw std::invalid_argument("Netlist: bad output id");
  outputs_.push_back(s);
}

SigId Netlist::const0() {
  if (const0_ == kNoSig) const0_ = add_gate(GateKind::kConst0);
  return const0_;
}

SigId Netlist::const1() {
  if (const1_ == kNoSig) const1_ = add_gate(GateKind::kConst1);
  return const1_;
}

Bus Netlist::add_input_bus(int width) {
  Bus b;
  b.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) b.push_back(add_input());
  return b;
}

SigId Netlist::reduce_and(std::span<const SigId> bits) {
  if (bits.empty()) return const1();
  std::vector<SigId> level(bits.begin(), bits.end());
  while (level.size() > 1) {
    std::vector<SigId> next;
    next.reserve(level.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) next.push_back(and2(level[i], level[i + 1]));
    if (level.size() % 2) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}

SigId Netlist::reduce_or(std::span<const SigId> bits) {
  if (bits.empty()) return const0();
  std::vector<SigId> level(bits.begin(), bits.end());
  while (level.size() > 1) {
    std::vector<SigId> next;
    next.reserve(level.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) next.push_back(or2(level[i], level[i + 1]));
    if (level.size() % 2) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}

namespace {
void check_same_width(const Bus& a, const Bus& b) {
  if (a.size() != b.size()) throw std::invalid_argument("Netlist: bus width mismatch");
}
}  // namespace

Bus Netlist::bus_and(const Bus& a, const Bus& b) {
  check_same_width(a, b);
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(and2(a[i], b[i]));
  return out;
}

Bus Netlist::bus_or(const Bus& a, const Bus& b) {
  check_same_width(a, b);
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(or2(a[i], b[i]));
  return out;
}

Bus Netlist::bus_xor(const Bus& a, const Bus& b) {
  check_same_width(a, b);
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(xor2(a[i], b[i]));
  return out;
}

Bus Netlist::bus_mux(const Bus& lo, const Bus& hi, SigId sel) {
  check_same_width(lo, hi);
  Bus out;
  out.reserve(lo.size());
  for (std::size_t i = 0; i < lo.size(); ++i) out.push_back(mux2(lo[i], hi[i], sel));
  return out;
}

Bus Netlist::ripple_add(const Bus& a, const Bus& b, SigId carry_in, SigId* cout) {
  check_same_width(a, b);
  Bus sum;
  sum.reserve(a.size());
  SigId carry = carry_in;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const SigId axb = xor2(a[i], b[i]);
    sum.push_back(xor2(axb, carry));
    // carry-out = a&b | carry&(a^b)
    const SigId t1 = and2(a[i], b[i]);
    const SigId t2 = and2(carry, axb);
    carry = or2(t1, t2);
  }
  if (cout != nullptr) *cout = carry;
  return sum;
}

SigId Netlist::equals(const Bus& a, const Bus& b) {
  check_same_width(a, b);
  std::vector<SigId> eq;
  eq.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) eq.push_back(xnor2(a[i], b[i]));
  return reduce_and(eq);
}

}  // namespace vasim::circuit
