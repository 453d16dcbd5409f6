// Standard-cell model: the gate types available to netlists.
//
// The library mirrors a small combinational subset of an industrial standard
// cell library (Nangate-45-like): buffers/inverters, 2..4-input basic gates,
// a 2:1 mux, and a scan D flip-flop, plus pseudo-cells for primary ports.
// Gate evaluation is word-parallel: one std::uint64_t carries the same signal
// for 64 independent test patterns, which is the core speed trick of the
// fault simulator.
#ifndef M3DFL_NETLIST_CELL_H_
#define M3DFL_NETLIST_CELL_H_

#include <cstdint>
#include <span>
#include <string>

#include "util/error.h"

namespace m3dfl {

// Gate/cell types.  kPrimaryInput/kPrimaryOutput are pseudo-cells modelling
// the module ports; kScanFlop is the only sequential cell (full-scan design).
enum class GateType : std::uint8_t {
  kPrimaryInput,
  kPrimaryOutput,
  kBuf,
  kInv,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
  kMux,  // inputs: [sel, a, b]; output = sel ? b : a
  kScanFlop,
};

// Number of distinct GateType values.
inline constexpr int kNumGateTypes = 12;

// Human-readable cell name, e.g. "NAND".
std::string_view gate_type_name(GateType type);

// Parses a cell name (optionally suffixed with fan-in count, e.g. "NAND3")
// back to a GateType; throws m3dfl::Error for unknown names.
GateType parse_gate_type(std::string_view name);

// Inclusive fan-in bounds for a gate type.
int min_fanin(GateType type);
int max_fanin(GateType type);

// True for cells that drive a net (everything except kPrimaryOutput).
inline bool has_output(GateType type) {
  return type != GateType::kPrimaryOutput;
}

// True for cells evaluated by the combinational simulator (excludes ports
// and flops, whose values are injected as sources / captured as sinks).
inline bool is_combinational(GateType type) {
  return type != GateType::kPrimaryInput &&
         type != GateType::kPrimaryOutput && type != GateType::kScanFlop;
}

// Word-parallel evaluation of a combinational cell over 64 patterns.
// `inputs` holds one word per fan-in pin, in pin order.  Inline: it is the
// innermost call of both simulators.
inline std::uint64_t eval_gate(GateType type,
                               std::span<const std::uint64_t> inputs) {
  switch (type) {
    case GateType::kBuf:
      M3DFL_ASSERT(inputs.size() == 1);
      return inputs[0];
    case GateType::kInv:
      M3DFL_ASSERT(inputs.size() == 1);
      return ~inputs[0];
    case GateType::kAnd:
    case GateType::kNand: {
      M3DFL_ASSERT(inputs.size() >= 2);
      std::uint64_t acc = inputs[0];
      for (std::size_t i = 1; i < inputs.size(); ++i) acc &= inputs[i];
      return type == GateType::kAnd ? acc : ~acc;
    }
    case GateType::kOr:
    case GateType::kNor: {
      M3DFL_ASSERT(inputs.size() >= 2);
      std::uint64_t acc = inputs[0];
      for (std::size_t i = 1; i < inputs.size(); ++i) acc |= inputs[i];
      return type == GateType::kOr ? acc : ~acc;
    }
    case GateType::kXor:
      M3DFL_ASSERT(inputs.size() == 2);
      return inputs[0] ^ inputs[1];
    case GateType::kXnor:
      M3DFL_ASSERT(inputs.size() == 2);
      return ~(inputs[0] ^ inputs[1]);
    case GateType::kMux:
      M3DFL_ASSERT(inputs.size() == 3);
      // output = sel ? b : a, bitwise over the pattern word.
      return (inputs[0] & inputs[2]) | (~inputs[0] & inputs[1]);
    default:
      // Ports and flops are not combinationally evaluated.
      M3DFL_ASSERT(false);
  }
}

// Scalar convenience wrapper used by tests: evaluates on single-bit inputs.
bool eval_gate_scalar(GateType type, std::span<const bool> inputs);

}  // namespace m3dfl

#endif  // M3DFL_NETLIST_CELL_H_
