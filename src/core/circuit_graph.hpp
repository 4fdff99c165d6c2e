#pragma once

#include <vector>

#include "netlist/circuit.hpp"
#include "netlist/topology.hpp"
#include "nn/tensor.hpp"

namespace deepseq {

/// Node-feature index of the 4-d one-hot gate-type encoding (paper §III-B:
/// the sequential AIG contains AND, NOT, PI and FF only).
constexpr int kFeatureDim = 4;
int feature_index(GateType t);

/// One level of batched message passing: `targets` are the nodes updated at
/// this step (rows of the level's state matrix, in order); `sources` is the
/// flattened list of their message providers (predecessors in a forward
/// pass, successors in a reverse pass); `segment[i]` maps sources[i] to the
/// index of its target within `targets`.
struct LevelBatch {
  std::vector<NodeId> targets;
  std::vector<NodeId> sources;
  std::vector<int> segment;

  bool empty() const { return targets.empty(); }
};

/// Everything the GNN needs about one circuit, precomputed once:
///
/// * `features` — N x 4 one-hot gate types.
/// * `comb_forward` / `comb_reverse` — the paper's customized propagation
///   structure (Fig. 2): FF incoming edges removed so FFs are pseudo
///   primary inputs at level 0; forward batches cover combinational gates
///   in level order, reverse batches cover them in descending level order
///   with messages from comb-view successors (including FFs reading the
///   node as their D input).
/// * `ff_targets` / `ff_sources` — step 4 of the scheme: each FF's state is
///   replaced by the state of its D predecessor after every iteration.
/// * `baseline_forward` / `baseline_reverse` — the plain acyclified-DAG
///   schedule used by DAG-ConvGNN / DAG-RecGNN baselines: back edges
///   removed, FFs aggregate like ordinary nodes, no state-copy step.
struct CircuitGraph {
  int num_nodes = 0;
  nn::Tensor features;
  std::vector<NodeId> pis;  // workload rows are written onto these nodes
  std::vector<NodeId> consts;  // CONST0 nodes: pinned to 0 like PIs

  Levelization comb;
  std::vector<LevelBatch> comb_forward;
  std::vector<LevelBatch> comb_reverse;
  std::vector<NodeId> ff_targets;
  std::vector<NodeId> ff_sources;

  std::vector<LevelBatch> baseline_forward;
  std::vector<LevelBatch> baseline_reverse;
};

/// Build the graph for a strict sequential AIG. Throws CircuitError if the
/// circuit contains gate types outside {PI, AND, NOT, FF, CONST0};
/// constant-0 nodes are treated as pseudo-PIs pinned to probability 0.
/// The result has passed validate_circuit_graph.
CircuitGraph build_circuit_graph(const Circuit& aig);

/// The index contract the fused inference pass relies on when it reads and
/// writes state rows directly: features is num_nodes x kFeatureDim; every
/// PI, constant, target, source and FF index is a node in [0, num_nodes);
/// sources and segment have equal length with every segment entry naming a
/// target of its level; no level repeats a target; ff_targets and
/// ff_sources pair up. Throws deepseq::Error naming the first violation.
/// Checked once per structure (at build), not per embed.
void validate_circuit_graph(const CircuitGraph& g);

}  // namespace deepseq
