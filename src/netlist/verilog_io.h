// Netlist serialization.
//
// Two formats:
//  * MNL ("m3dfl netlist") — a line-oriented structural format with a full
//    round-trip (write_mnl / read_mnl); used for persisting generated
//    benchmarks and in tests.
//  * Structural Verilog — write-only export so generated designs can be
//    inspected with standard EDA viewers.
#ifndef M3DFL_NETLIST_VERILOG_IO_H_
#define M3DFL_NETLIST_VERILOG_IO_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "util/limits.h"

namespace m3dfl {

// Serializes a finalized netlist in MNL format.
void write_mnl(const Netlist& netlist, std::ostream& os);
std::string to_mnl(const Netlist& netlist);

// One gate record as the MNL scanner read it.  Ids are validated (dense
// gate ids, net ids in [0, max_nets)); netlist invariants such as one
// driver per net are not — that is for the caller to enforce or diagnose.
struct MnlGate {
  GateType type = GateType::kBuf;
  std::string name;
  std::vector<NetId> fanin;  // in pin order
  NetId fanout = kNullNet;
  int line = 0;              // 1-based source line, 0 = not from a file
};

struct MnlScan {
  std::string design_name;
  std::vector<MnlGate> gates;
  NetId num_nets = 0;  // 1 + the largest net id any record names
  bool saw_end = false;
  int lines = 0;       // lines read, up to and including 'end'
};

// Reports one bad line: its 1-based number and what is wrong with it.
using MnlLineError = std::function<void(int line, const std::string& what)>;

// The one MNL tokenizer, shared by read_mnl and the lint engine.  Every
// line it cannot take — malformed, or past a `limits` cap (line bytes,
// tokens per line, gate count, net id, fanin) — goes to `on_error`, and the
// scan skips it; a bad or missing header ends the scan.  Net ids are
// checked against max_nets before anything is sized by them.  `on_error`
// may throw to stop at the first report.
MnlScan scan_mnl(std::istream& is, const ParseLimits& limits,
                 const MnlLineError& on_error);

// Parses MNL text back into a finalized netlist; throws m3dfl::Error
// ("MNL line N: ...") on the first line scan_mnl reports, on a net with two
// drivers, and on a missing 'end'.
Netlist read_mnl(std::istream& is, const ParseLimits& limits = {});
Netlist from_mnl(const std::string& text, const ParseLimits& limits = {});

// Exports a finalized netlist as structural Verilog.
void write_verilog(const Netlist& netlist, std::ostream& os);
std::string to_verilog(const Netlist& netlist);

}  // namespace m3dfl

#endif  // M3DFL_NETLIST_VERILOG_IO_H_
