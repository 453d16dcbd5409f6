#include "netlist/verilog_io.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/error.h"

namespace m3dfl {

// MNL grammar (one record per line, '#' comments):
//   mnl 1
//   design <name>
//   gate <id> <TYPE> <name> out=<net|-> in=<net,net,...|->
//   end
void write_mnl(const Netlist& netlist, std::ostream& os) {
  M3DFL_REQUIRE(netlist.finalized(), "write_mnl requires a finalized netlist");
  os << "mnl 1\n";
  os << "design " << (netlist.name().empty() ? "top" : netlist.name()) << "\n";
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    const Gate& gate = netlist.gate(g);
    os << "gate " << g << " " << gate_type_name(gate.type) << " "
       << (gate.name.empty() ? 'g' + std::to_string(g) : gate.name) << " out=";
    if (gate.fanout == kNullNet) {
      os << "-";
    } else {
      os << gate.fanout;
    }
    os << " in=";
    if (gate.fanin.empty()) {
      os << "-";
    } else {
      for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
        os << (i ? "," : "") << gate.fanin[i];
      }
    }
    os << "\n";
  }
  os << "end\n";
}

std::string to_mnl(const Netlist& netlist) {
  std::ostringstream os;
  write_mnl(netlist, os);
  return os.str();
}

namespace {

// All parse diagnostics cite the 1-based line, so a malformed netlist file
// is debuggable from the message alone (same contract as diag/log_io).
[[noreturn]] void parse_fail(int line_no, const std::string& what) {
  throw Error("MNL line " + std::to_string(line_no) + ": " + what);
}

// A line scan_mnl cannot take; caught per line and handed to on_error.
struct BadLine {
  std::string what;
};

[[noreturn]] void bad_line(std::string what) {
  throw BadLine{std::move(what)};
}

// The whitespace-separated tokens of `line` before any '#' comment.
std::vector<std::string> split_ws(const std::string& line,
                                  const ParseLimits& limits) {
  std::vector<std::string> out;
  std::istringstream is(line.substr(0, line.find('#')));
  std::string tok;
  while (is >> tok) {
    if (out.size() >= limits.max_tokens_per_line) {
      bad_line(limit_exceeded("tokens on one line", out.size() + 1,
                              limits.max_tokens_per_line));
    }
    out.push_back(tok);
  }
  return out;
}

std::int32_t parse_i32(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    // An id past int32 must reject, not wrap: a silently truncated net id
    // would alias an unrelated net and parse garbage into a "valid" netlist.
    if (v < std::numeric_limits<std::int32_t>::min() ||
        v > std::numeric_limits<std::int32_t>::max()) {
      throw std::out_of_range(s);
    }
    return static_cast<std::int32_t>(v);
  } catch (const std::exception&) {
    bad_line(std::string("bad ") + what + " '" + s + "'");
  }
}

// Validated against the policy cap BEFORE the id sizes anything: one record
// naming net 2^31-1 must reject here, not allocate a 2-billion-entry table.
NetId parse_net(const std::string& s, const ParseLimits& limits) {
  const NetId net = parse_i32(s, "net id");
  if (net < 0) bad_line("out-of-range net id " + std::to_string(net));
  if (net >= limits.max_nets) {
    bad_line(limit_exceeded("net id", static_cast<unsigned long long>(net),
                            static_cast<unsigned long long>(
                                limits.max_nets)));
  }
  return net;
}

// Expected-vs-found, so a file of the wrong kind (or a future format
// version) is reported as such instead of as a generic failure.
void scan_header(const std::vector<std::string>& toks,
                 const std::string& line) {
  if (toks[0] != "mnl") {
    bad_line("not an MNL stream: expected 'mnl 1' header, found '" + line +
             "'");
  }
  if (toks.size() != 2 || toks[1] != "1") {
    bad_line("unsupported MNL version: expected 1, found '" +
             (toks.size() > 1 ? toks[1] : "") + "'");
  }
}

MnlGate scan_gate(const std::vector<std::string>& toks, std::size_t num_gates,
                  const ParseLimits& limits) {
  if (toks.size() != 6) {
    bad_line("truncated 'gate' record (expected 6 fields, got " +
             std::to_string(toks.size()) + ")");
  }
  const std::int32_t id = parse_i32(toks[1], "gate id");
  if (id != static_cast<std::int32_t>(num_gates)) {
    bad_line("gate ids must be dense and in order: expected " +
             std::to_string(num_gates) + ", found " + std::to_string(id));
  }
  if (static_cast<std::int32_t>(num_gates) >= limits.max_gates) {
    bad_line(limit_exceeded(
        "gate count", static_cast<unsigned long long>(num_gates) + 1,
        static_cast<unsigned long long>(limits.max_gates)));
  }
  MnlGate gate;
  try {
    gate.type = parse_gate_type(toks[2]);
  } catch (const Error&) {
    bad_line("bad gate type '" + toks[2] + "'");
  }
  gate.name = toks[3];
  if (toks[4].rfind("out=", 0) != 0 || toks[5].rfind("in=", 0) != 0) {
    bad_line("bad out=/in= fields");
  }
  const std::string out = toks[4].substr(4);
  if (out != "-") gate.fanout = parse_net(out, limits);
  const std::string in = toks[5].substr(3);
  if (in != "-") {
    std::istringstream iss(in);
    std::string item;
    while (std::getline(iss, item, ',')) {
      const NetId net = parse_net(item, limits);
      if (gate.fanin.size() >= limits.max_fanin) {
        bad_line(limit_exceeded("gate fanin", gate.fanin.size() + 1,
                                limits.max_fanin));
      }
      gate.fanin.push_back(net);
    }
  }
  return gate;
}

}  // namespace

MnlScan scan_mnl(std::istream& is, const ParseLimits& limits,
                 const MnlLineError& on_error) {
  MnlScan scan;
  // Comment/blank lines may precede the header ('#' comments are part of
  // the grammar, and the corpus fixtures lead with a description).
  bool saw_header = false;
  bool saw_design = false;
  std::string line;
  for (;;) {
    const BoundedLine read = bounded_getline(is, line, limits.max_line_bytes);
    if (!read.ok() && !read.too_long()) break;
    ++scan.lines;
    try {
      if (read.too_long()) {
        // Discard the rest of the line without buffering it.
        is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
        bad_line(limit_exceeded_over("line bytes", limits.max_line_bytes));
      }
      const std::vector<std::string> toks = split_ws(line, limits);
      if (toks.empty()) continue;
      if (!saw_header) {
        scan_header(toks, line);
        saw_header = true;
      } else if (toks[0] == "design") {
        if (toks.size() != 2) {
          bad_line("bad design record (expected 'design <name>')");
        }
        if (saw_design) bad_line("duplicate design record");
        saw_design = true;
        scan.design_name = toks[1];
      } else if (toks[0] == "end") {
        scan.saw_end = true;
        break;
      } else if (toks[0] == "gate") {
        MnlGate gate = scan_gate(toks, scan.gates.size(), limits);
        gate.line = scan.lines;
        for (NetId net : gate.fanin) {
          scan.num_nets = std::max(scan.num_nets, net + 1);
        }
        scan.num_nets = std::max(scan.num_nets, gate.fanout + 1);
        scan.gates.push_back(std::move(gate));
      } else {
        bad_line("unknown record '" + toks[0] + "'");
      }
    } catch (const BadLine& bad) {
      on_error(scan.lines, bad.what);
      if (!saw_header) return scan;
    }
  }
  if (!saw_header) {
    on_error(scan.lines + 1, "empty input (expected 'mnl 1' header)");
  }
  return scan;
}

Netlist read_mnl(std::istream& is, const ParseLimits& limits) {
  const MnlScan scan =
      scan_mnl(is, limits, [](int line_no, const std::string& what) {
        parse_fail(line_no, what);
      });
  // net -> line of the gate already driving it: two drivers on one net is a
  // short, not a netlist, so it is rejected at parse time.
  std::vector<int> driver_line(static_cast<std::size_t>(scan.num_nets), 0);
  for (const MnlGate& gate : scan.gates) {
    if (gate.fanout == kNullNet) continue;
    int& owner = driver_line[static_cast<std::size_t>(gate.fanout)];
    if (owner != 0) {
      parse_fail(gate.line, "net " + std::to_string(gate.fanout) +
                                " already driven by the gate on line " +
                                std::to_string(owner));
    }
    owner = gate.line;
  }
  M3DFL_REQUIRE(scan.saw_end, "MNL: truncated (missing 'end' after line " +
                                  std::to_string(scan.lines) + ")");

  Netlist nl(scan.design_name);
  for (NetId n = 0; n < scan.num_nets; ++n) nl.add_net();
  for (const MnlGate& gate : scan.gates) {
    const GateId g = nl.add_gate(gate.type, gate.name);
    if (gate.fanout != kNullNet) nl.set_output(g, gate.fanout);
    for (NetId n : gate.fanin) nl.connect_input(g, n);
  }
  nl.finalize();
  return nl;
}

Netlist from_mnl(const std::string& text, const ParseLimits& limits) {
  std::istringstream is(text);
  return read_mnl(is, limits);
}

void write_verilog(const Netlist& netlist, std::ostream& os) {
  M3DFL_REQUIRE(netlist.finalized(),
                "write_verilog requires a finalized netlist");
  const auto net_name = [&](NetId n) {
    const std::string& s = netlist.net(n).name;
    return s.empty() ? 'n' + std::to_string(n) : s;
  };
  const auto gate_name = [&](GateId g) {
    const std::string& s = netlist.gate(g).name;
    return s.empty() ? 'g' + std::to_string(g) : s;
  };

  os << "module " << (netlist.name().empty() ? "top" : netlist.name()) << " (";
  bool first = true;
  for (GateId g : netlist.primary_inputs()) {
    os << (first ? "" : ", ") << gate_name(g);
    first = false;
  }
  for (GateId g : netlist.primary_outputs()) {
    os << (first ? "" : ", ") << gate_name(g);
    first = false;
  }
  os << ");\n";
  for (GateId g : netlist.primary_inputs()) {
    os << "  input " << gate_name(g) << ";\n";
  }
  for (GateId g : netlist.primary_outputs()) {
    os << "  output " << gate_name(g) << ";\n";
  }
  for (NetId n = 0; n < netlist.num_nets(); ++n) {
    os << "  wire " << net_name(n) << ";\n";
  }
  // Port aliases.
  for (GateId g : netlist.primary_inputs()) {
    os << "  assign " << net_name(netlist.gate(g).fanout) << " = "
       << gate_name(g) << ";\n";
  }
  for (GateId g : netlist.primary_outputs()) {
    os << "  assign " << gate_name(g) << " = "
       << net_name(netlist.gate(g).fanin[0]) << ";\n";
  }
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    const Gate& gate = netlist.gate(g);
    if (gate.type == GateType::kPrimaryInput ||
        gate.type == GateType::kPrimaryOutput) {
      continue;
    }
    if (gate.type == GateType::kScanFlop) {
      os << "  SDFF " << gate_name(g) << " (.D(" << net_name(gate.fanin[0])
         << "), .Q(" << net_name(gate.fanout) << "));\n";
      continue;
    }
    os << "  " << gate_type_name(gate.type) << gate.fanin.size() << " "
       << gate_name(g) << " (.Y(" << net_name(gate.fanout) << ")";
    for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
      os << ", .A" << i << "(" << net_name(gate.fanin[i]) << ")";
    }
    os << ");\n";
  }
  os << "endmodule\n";
}

std::string to_verilog(const Netlist& netlist) {
  std::ostringstream os;
  write_verilog(netlist, os);
  return os.str();
}

}  // namespace m3dfl
