#pragma once

#include <string>

#include "common/rng.hpp"
#include "netlist/circuit.hpp"

namespace deepseq {

/// Parameters of the random sequential-netlist generator used to synthesize
/// benchmark-family circuits (our substitute for the ISCAS'89 / ITC'99 /
/// OpenCores sources, which this reproduction does not ship). Gates are
/// created in topological order with locality-biased fanin selection
/// (yields realistic logic depth); FF D-inputs close feedback loops
/// afterwards.
struct GeneratorSpec {
  std::string name = "rand";
  int num_pis = 8;
  int num_ffs = 12;
  int num_gates = 150;
  /// Mean distance (in creation order) between a gate and its fanins;
  /// smaller = deeper circuits.
  double locality = 24.0;
  /// Relative weights of generated gate types, indexed by GateType. AIG-only
  /// circuits set everything but AND/NOT to zero.
  double gate_weights[kNumGateTypes] = {
      /*CONST0*/ 0, /*PI*/ 0, /*AND*/ 4, /*NOT*/ 2, /*FF*/ 0,
      /*BUF*/ 0.5,  /*OR*/ 3, /*NAND*/ 2, /*NOR*/ 1, /*XOR*/ 1, /*XNOR*/ 0.5,
      /*MUX*/ 1};
  /// Fraction of non-sink gates additionally exported as observable POs.
  double extra_po_fraction = 0.05;
};

/// Generate a valid (acyclic-combinational) random sequential netlist.
Circuit generate_circuit(const GeneratorSpec& spec, Rng& rng);

/// Family presets whose node statistics mirror Table I.
GeneratorSpec iscas89_like_spec(Rng& rng);
GeneratorSpec itc99_like_spec(Rng& rng);
GeneratorSpec opencores_like_spec(Rng& rng);

}  // namespace deepseq
