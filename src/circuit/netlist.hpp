// Structural gate-level netlist.
//
// Signals and gates share one id space (each gate drives exactly one
// signal).  Construction enforces topological order: a gate may only
// reference strictly smaller ids, so the netlist is a DAG evaluable in a
// single forward pass -- the property gatesim and sta rely on.
#ifndef VASIM_CIRCUIT_NETLIST_HPP
#define VASIM_CIRCUIT_NETLIST_HPP

#include <span>
#include <string>
#include <vector>

#include "src/circuit/cell_library.hpp"
#include "src/common/types.hpp"

namespace vasim::circuit {

/// Signal/gate identifier.
using SigId = i32;
inline constexpr SigId kNoSig = -1;

/// One gate instance; `in` slots beyond the cell's fanin are kNoSig.
/// For kMux2: in[0] = value when select=0, in[1] = value when select=1,
/// in[2] = select.
struct Gate {
  GateKind kind = GateKind::kConst0;
  SigId in[3] = {kNoSig, kNoSig, kNoSig};
};

/// A multi-bit signal, least-significant bit first.
using Bus = std::vector<SigId>;

/// Append-only netlist.  Ids [0, num_inputs) are primary inputs.
class Netlist {
 public:
  /// Adds a primary input; only legal before any logic gate exists.
  SigId add_input();

  /// Adds a gate of `kind` reading `a`, `b`, `c` (unused slots kNoSig).
  /// Throws std::invalid_argument on arity mismatch or forward references.
  SigId add_gate(GateKind kind, SigId a = kNoSig, SigId b = kNoSig, SigId c = kNoSig);

  /// Marks `s` as a primary output.
  void mark_output(SigId s);

  [[nodiscard]] int num_inputs() const { return num_inputs_; }
  [[nodiscard]] int num_signals() const { return static_cast<int>(gates_.size()); }
  /// Count of real logic gates (excludes inputs/constants/buffers? no --
  /// excludes only inputs and constants; buffers count).
  [[nodiscard]] int num_logic_gates() const { return num_logic_; }
  [[nodiscard]] const Gate& gate(SigId s) const { return gates_[static_cast<std::size_t>(s)]; }
  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }
  [[nodiscard]] const std::vector<SigId>& outputs() const { return outputs_; }

  // -- convenience constructors ------------------------------------------
  SigId const0();
  SigId const1();
  SigId inv(SigId a) { return add_gate(GateKind::kInv, a); }
  SigId buf(SigId a) { return add_gate(GateKind::kBuf, a); }
  SigId and2(SigId a, SigId b) { return add_gate(GateKind::kAnd2, a, b); }
  SigId or2(SigId a, SigId b) { return add_gate(GateKind::kOr2, a, b); }
  SigId nand2(SigId a, SigId b) { return add_gate(GateKind::kNand2, a, b); }
  SigId nor2(SigId a, SigId b) { return add_gate(GateKind::kNor2, a, b); }
  SigId xor2(SigId a, SigId b) { return add_gate(GateKind::kXor2, a, b); }
  SigId xnor2(SigId a, SigId b) { return add_gate(GateKind::kXnor2, a, b); }
  /// out = sel ? hi : lo
  SigId mux2(SigId lo, SigId hi, SigId sel) { return add_gate(GateKind::kMux2, lo, hi, sel); }

  // -- multi-bit helpers ---------------------------------------------------
  Bus add_input_bus(int width);
  /// Wide AND/OR reduction trees (balanced, log depth).
  SigId reduce_and(std::span<const SigId> bits);
  SigId reduce_or(std::span<const SigId> bits);
  /// Bitwise ops over equal-width buses.
  Bus bus_and(const Bus& a, const Bus& b);
  Bus bus_or(const Bus& a, const Bus& b);
  Bus bus_xor(const Bus& a, const Bus& b);
  Bus bus_mux(const Bus& lo, const Bus& hi, SigId sel);
  /// Ripple-carry add; returns sum bus, carry-out in *cout when non-null.
  Bus ripple_add(const Bus& a, const Bus& b, SigId carry_in, SigId* cout = nullptr);
  /// a == b (wide equality).
  SigId equals(const Bus& a, const Bus& b);

 private:
  std::vector<Gate> gates_;
  std::vector<SigId> outputs_;
  int num_inputs_ = 0;
  int num_logic_ = 0;
  SigId const0_ = kNoSig;
  SigId const1_ = kNoSig;
};

}  // namespace vasim::circuit

#endif  // VASIM_CIRCUIT_NETLIST_HPP
