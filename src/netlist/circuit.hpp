#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "netlist/gate_type.hpp"

namespace deepseq {

using NodeId = std::uint32_t;
constexpr NodeId kNullNode = 0xFFFFFFFFu;

/// One gate/input/flip-flop. Fanins are stored inline (max arity 3: MUX).
struct Node {
  GateType type = GateType::kConst0;
  std::uint8_t num_fanins = 0;
  std::array<NodeId, 3> fanin{{kNullNode, kNullNode, kNullNode}};
};

/// A gate-level sequential netlist. Nodes are identified by dense ids in
/// creation order; primary outputs reference existing nodes. FF fanin 0 is
/// the D input (which may close a cycle back through combinational logic —
/// that is the defining feature of a sequential circuit). Combinational
/// cycles are invalid and rejected by validate().
class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::string name) : name_(std::move(name)) {}

  // ---- construction -------------------------------------------------------

  NodeId add_pi(std::string name = {});
  NodeId add_const0(std::string name = {});
  /// Add a combinational gate. Fanin count must match gate_arity(type).
  NodeId add_gate(GateType type, const std::vector<NodeId>& fanins,
                  std::string name = {});
  NodeId add_not(NodeId a, std::string name = {});
  NodeId add_and(NodeId a, NodeId b, std::string name = {});
  /// Add a D flip-flop. `d` may be kNullNode and connected later with
  /// set_fanin() to build feedback loops.
  NodeId add_ff(NodeId d = kNullNode, std::string name = {});
  void set_fanin(NodeId node, int slot, NodeId source);
  /// Mark an existing node as a primary output.
  void add_po(NodeId node, std::string name = {});
  /// Reserve room for `num_nodes` nodes (a decoder that knows the count).
  void reserve(std::size_t num_nodes) {
    nodes_.reserve(num_nodes);
    names_.reserve(num_nodes);
  }

  // ---- accessors ----------------------------------------------------------

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  std::size_t num_nodes() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  GateType type(NodeId id) const { return nodes_[id].type; }
  int num_fanins(NodeId id) const { return nodes_[id].num_fanins; }
  NodeId fanin(NodeId id, int slot) const { return nodes_[id].fanin[slot]; }

  const std::vector<NodeId>& pis() const { return pis_; }
  const std::vector<NodeId>& ffs() const { return ffs_; }
  const std::vector<NodeId>& pos() const { return pos_; }

  const std::string& node_name(NodeId id) const { return names_[id]; }
  void set_node_name(NodeId id, std::string name) { names_[id] = std::move(name); }
  const std::string& po_name(std::size_t k) const { return po_names_[k]; }
  void set_po_name(std::size_t k, std::string name) { po_names_[k] = std::move(name); }
  /// Find a node by name; returns kNullNode when absent (linear scan).
  NodeId find_by_name(std::string_view name) const;

  // ---- derived structure --------------------------------------------------

  /// fanouts()[v] = nodes that read v (including FFs reading their D input).
  std::vector<std::vector<NodeId>> fanouts() const;

  /// Throws CircuitError on dangling fanins, wrong arity, PIs with fanins,
  /// unconnected FF D inputs, or combinational cycles.
  void validate() const;

  /// True if every node type is PI/AND/NOT/FF (strict sequential AIG).
  bool is_strict_aig() const;

  /// Count of nodes of each type.
  std::array<std::size_t, kNumGateTypes> type_counts() const;

 private:
  NodeId add_node(GateType type, std::string name);

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::string> names_;
  std::vector<NodeId> pis_;
  std::vector<NodeId> ffs_;
  std::vector<NodeId> pos_;
  std::vector<std::string> po_names_;
};

}  // namespace deepseq
