#pragma once

#include <iosfwd>
#include <string>

#include "netlist/circuit.hpp"

namespace deepseq {

/// Parse an ISCAS'89-style BENCH netlist:
///
///   # comment
///   INPUT(G0)
///   OUTPUT(G17)
///   G5 = DFF(G10)
///   G10 = NAND(G0, G5)
///   G17 = NOT(G10)
///
/// Signals may be referenced before definition (feedback through DFFs).
/// Accepted gates: AND OR NAND NOR XOR XNOR NOT BUFF DFF MUX CONST0.
/// Multi-input AND/OR/NAND/NOR (>2 fanins) are legal BENCH and are expanded
/// into balanced 2-input trees on the fly.
Circuit parse_bench(std::istream& in, std::string circuit_name = "bench");
Circuit parse_bench_string(const std::string& text,
                           std::string circuit_name = "bench");
Circuit parse_bench_file(const std::string& path);

/// Stable, pairwise distinct per-node names. A node's base name is its own
/// name when present, otherwise "n<id>". The first node (in id order) with
/// a base keeps it; each later one gets "<base>_<k>" with k counting up
/// per base, skipping any name another node's base or an earlier suffix
/// already uses. Shared by the BENCH and Verilog writers, VCD, SAIF
/// emission and the power analyzer so activity files and netlists always
/// agree on net names, one net per node.
std::vector<std::string> unique_node_names(const Circuit& c);

/// Serialize to BENCH. Nodes without names get stable generated names.
void write_bench(const Circuit& c, std::ostream& out);
std::string write_bench_string(const Circuit& c);
void write_bench_file(const Circuit& c, const std::string& path);

}  // namespace deepseq
