#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/circuit.hpp"

namespace deepseq {

/// One of the six large evaluation designs of Table IV. The netlist uses
/// the full generic gate vocabulary (paper §V-A2: "test circuits containing
/// different gate types") and is decomposed to AIG at inference time.
struct TestDesign {
  std::string name;
  std::string description;
  int paper_nodes = 0;  // node count reported in Table IV
  Circuit netlist;
};

/// Deterministically synthesize a named test design at `scale` times the
/// paper's node count: a synthetic stand-in for the paper's OpenCores
/// netlist of that name, which this reproduction does not ship. Valid
/// names: noc_router, pll, ptc, rtcclock, ac97_ctrl, mem_ctrl.
TestDesign build_test_design(const std::string& name, double scale,
                             std::uint64_t seed);

/// All six designs of Table IV, in paper order.
std::vector<TestDesign> build_all_test_designs(double scale, std::uint64_t seed);

/// The scale used by benches: 1.0 under DEEPSEQ_FULL=1, else 1/8.
double default_design_scale();

}  // namespace deepseq
