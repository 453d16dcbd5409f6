#include "netlist/cell.h"

#include <cctype>

#include "util/error.h"

namespace m3dfl {

std::string_view gate_type_name(GateType type) {
  switch (type) {
    case GateType::kPrimaryInput: return "PI";
    case GateType::kPrimaryOutput: return "PO";
    case GateType::kBuf: return "BUF";
    case GateType::kInv: return "INV";
    case GateType::kAnd: return "AND";
    case GateType::kNand: return "NAND";
    case GateType::kOr: return "OR";
    case GateType::kNor: return "NOR";
    case GateType::kXor: return "XOR";
    case GateType::kXnor: return "XNOR";
    case GateType::kMux: return "MUX";
    case GateType::kScanFlop: return "SDFF";
  }
  M3DFL_ASSERT(false);
}

GateType parse_gate_type(std::string_view name) {
  // Strip a trailing fan-in count suffix ("NAND3" -> "NAND").
  std::size_t end = name.size();
  while (end > 0 && std::isdigit(static_cast<unsigned char>(name[end - 1]))) {
    --end;
  }
  const std::string_view base = name.substr(0, end);
  static constexpr GateType kAll[] = {
      GateType::kPrimaryInput, GateType::kPrimaryOutput,
      GateType::kBuf,          GateType::kInv,
      GateType::kAnd,          GateType::kNand,
      GateType::kOr,           GateType::kNor,
      GateType::kXor,          GateType::kXnor,
      GateType::kMux,          GateType::kScanFlop,
  };
  for (GateType t : kAll) {
    if (gate_type_name(t) == base) return t;
  }
  throw Error("unknown cell type: " + std::string(name));
}

int min_fanin(GateType type) {
  switch (type) {
    case GateType::kPrimaryInput: return 0;
    case GateType::kPrimaryOutput: return 1;
    case GateType::kBuf:
    case GateType::kInv: return 1;
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor:
    case GateType::kXor:
    case GateType::kXnor: return 2;
    case GateType::kMux: return 3;
    case GateType::kScanFlop: return 1;  // D pin only (clock is implicit)
  }
  M3DFL_ASSERT(false);
}

int max_fanin(GateType type) {
  switch (type) {
    case GateType::kPrimaryInput: return 0;
    case GateType::kPrimaryOutput: return 1;
    case GateType::kBuf:
    case GateType::kInv: return 1;
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor: return 4;
    case GateType::kXor:
    case GateType::kXnor: return 2;
    case GateType::kMux: return 3;
    case GateType::kScanFlop: return 1;
  }
  M3DFL_ASSERT(false);
}

bool eval_gate_scalar(GateType type, std::span<const bool> inputs) {
  std::uint64_t words[8];
  M3DFL_ASSERT(inputs.size() <= 8);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    words[i] = inputs[i] ? ~0ULL : 0ULL;
  }
  return (eval_gate(type, std::span<const std::uint64_t>(words,
                                                         inputs.size())) &
          1ULL) != 0;
}

}  // namespace m3dfl
