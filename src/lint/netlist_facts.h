// Lenient netlist structure extraction for the lint engine.
//
// Netlist (netlist/netlist.h) *cannot represent* several classic netlist
// defects: set_output() rejects a second driver at construction time and
// finalize() throws on the first arity/undriven/loop violation.  That is the
// right contract for the pipeline — but it means a defective netlist file is
// rejected at its first problem instead of being fully diagnosed.
//
// NetlistFacts is the lint-side intermediate: a plain record of "which gates
// claim which nets" that can hold any defect.  It is built either from a
// Netlist (always single-driver by construction, so those checks simply
// never fire) or from MNL text through the same bounded scanner read_mnl
// uses (netlist/verilog_io.h scan_mnl), which remembers the source line of
// every record so diagnostics cite file:line.
#ifndef M3DFL_LINT_NETLIST_FACTS_H_
#define M3DFL_LINT_NETLIST_FACTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/verilog_io.h"

namespace m3dfl::lint {

class Report;  // diagnostic.h

// A gate as the lint checks see it; `line` is 0 when not from a file.
using FactsGate = MnlGate;

struct NetlistFacts {
  std::string source;       // file name for location citations; "" = in-memory
  std::string design_name;
  std::vector<FactsGate> gates;
  std::int32_t num_nets = 0;
  // Per net: every gate that declares it as output (>1 = multi-driver).
  std::vector<std::vector<std::int32_t>> net_drivers;

  std::int32_t num_gates() const {
    return static_cast<std::int32_t>(gates.size());
  }

  // Location strings for diagnostics: "file.mnl:12" when the gate came from
  // a file, else "gate 3 (name)".
  std::string gate_loc(std::int32_t gate) const;
  std::string net_loc(std::int32_t net) const;

  // Extracts facts from a (possibly unfinalized) Netlist.
  static NetlistFacts from_netlist(const Netlist& netlist);

  // Scans MNL text with scan_mnl: structural defects (multi-driver,
  // undriven, bad arity) are *recorded*, not rejected — they are what the
  // lint pass is for.  Each line the scanner reports (malformed, or past a
  // ParseLimits cap) becomes an `mnl-syntax` diagnostic in `parse_diags`
  // and is skipped.
  static NetlistFacts from_mnl(const std::string& text,
                               const std::string& source,
                               Report& parse_diags);
};

}  // namespace m3dfl::lint

#endif  // M3DFL_LINT_NETLIST_FACTS_H_
