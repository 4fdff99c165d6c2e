#pragma once

#include "netlist/circuit.hpp"

namespace deepseq {

/// Synthetic standard-cell capacitance library with 90 nm-like magnitudes —
/// the stand-in for the paper's TSMC 90 nm library, which this
/// reproduction does not ship. Every power method flows through the same
/// library, so relative errors (the quantity Tables V/VI report) are
/// insensitive to the absolute values.
struct CellLibrary {
  double vdd = 1.0;          // volts
  double frequency = 5e8;    // Hz
  /// Switched capacitance per gate type, farads (indexed by GateType).
  double cap[kNumGateTypes] = {
      /*CONST0*/ 0.0,    /*PI*/ 1.0e-15,  /*AND*/ 3.2e-15, /*NOT*/ 1.8e-15,
      /*FF*/ 9.5e-15,    /*BUF*/ 2.0e-15, /*OR*/ 3.4e-15,  /*NAND*/ 2.8e-15,
      /*NOR*/ 3.0e-15,   /*XOR*/ 5.2e-15, /*XNOR*/ 5.4e-15, /*MUX*/ 6.0e-15};

  double cap_of(GateType t) const { return cap[static_cast<int>(t)]; }

  /// Dynamic power of one gate toggling at `toggle_rate` transitions per
  /// cycle: P = 1/2 * C * Vdd^2 * f * rate (paper §V-A).
  double gate_power(GateType t, double toggle_rate) const {
    return 0.5 * cap_of(t) * vdd * vdd * frequency * toggle_rate;
  }
};

/// The default library used by all benches and examples.
const CellLibrary& default_cell_library();

}  // namespace deepseq
