#include "core/circuit_graph.hpp"

#include "common/error.hpp"

namespace deepseq {

int feature_index(GateType t) {
  switch (t) {
    // A constant-0 node is a primary input pinned to logic-1 probability 0
    // (optimization keeps one when a PO cone is constant), so it shares the
    // PI feature slot and is pinned like a PI during propagation.
    case GateType::kConst0: return 0;
    case GateType::kPi: return 0;
    case GateType::kAnd: return 1;
    case GateType::kNot: return 2;
    case GateType::kFf: return 3;
    default:
      throw CircuitError("feature_index: node type " +
                         std::string(gate_type_name(t)) +
                         " is not part of the sequential AIG vocabulary");
  }
}

namespace {

bool is_gate(GateType t) { return t == GateType::kAnd || t == GateType::kNot; }

/// Forward batches from a level structure + fanin provider: one batch per
/// level >= 1 with every updatable node that has at least one predecessor.
template <typename FaninsOf, typename Updatable>
std::vector<LevelBatch> forward_batches(const Levelization& lv,
                                        FaninsOf&& fanins_of,
                                        Updatable&& updatable) {
  std::vector<LevelBatch> out;
  for (std::size_t l = 1; l < lv.by_level.size(); ++l) {
    LevelBatch batch;
    for (NodeId v : lv.by_level[l]) {
      if (!updatable(v)) continue;
      const auto& fi = fanins_of(v);
      if (fi.empty()) continue;
      const int t = static_cast<int>(batch.targets.size());
      batch.targets.push_back(v);
      for (NodeId u : fi) {
        batch.sources.push_back(u);
        batch.segment.push_back(t);
      }
    }
    if (!batch.empty()) out.push_back(std::move(batch));
  }
  return out;
}

/// Reverse batches: walk levels in descending order; each updatable node
/// aggregates from its successors (fanout list).
template <typename Updatable>
std::vector<LevelBatch> reverse_batches(
    const Levelization& lv, const std::vector<std::vector<NodeId>>& fanouts,
    Updatable&& updatable) {
  std::vector<LevelBatch> out;
  for (std::size_t li = lv.by_level.size(); li-- > 1;) {
    LevelBatch batch;
    for (NodeId v : lv.by_level[li]) {
      if (!updatable(v)) continue;
      if (fanouts[v].empty()) continue;
      const int t = static_cast<int>(batch.targets.size());
      batch.targets.push_back(v);
      for (NodeId u : fanouts[v]) {
        batch.sources.push_back(u);
        batch.segment.push_back(t);
      }
    }
    if (!batch.empty()) out.push_back(std::move(batch));
  }
  return out;
}

}  // namespace

CircuitGraph build_circuit_graph(const Circuit& c) {
  CircuitGraph g;
  g.num_nodes = static_cast<int>(c.num_nodes());
  g.pis = c.pis();
  for (NodeId v = 0; v < c.num_nodes(); ++v)
    if (c.type(v) == GateType::kConst0) g.consts.push_back(v);

  g.features = nn::Tensor(g.num_nodes, kFeatureDim);
  for (NodeId v = 0; v < c.num_nodes(); ++v)
    g.features.at(static_cast<int>(v), feature_index(c.type(v))) = 1.0f;

  // ---- customized propagation structure (comb view, Fig. 2) --------------
  g.comb = comb_levelize(c);
  auto comb_fanins = [&](NodeId v) {
    static thread_local std::vector<NodeId> buf;
    buf.clear();
    for (int i = 0; i < c.num_fanins(v); ++i) buf.push_back(c.fanin(v, i));
    return buf;
  };
  auto gate_only = [&](NodeId v) { return is_gate(c.type(v)); };
  g.comb_forward = forward_batches(g.comb, comb_fanins, gate_only);

  const auto fanouts = c.fanouts();  // includes FF D-read edges
  g.comb_reverse = reverse_batches(g.comb, fanouts, gate_only);

  for (NodeId ff : c.ffs()) {
    g.ff_targets.push_back(ff);
    g.ff_sources.push_back(c.fanin(ff, 0));
  }

  // ---- baseline DAG structure ---------------------------------------------
  const AcyclicView av = make_acyclic_view(c);
  auto av_fanins = [&](NodeId v) -> const std::vector<NodeId>& {
    return av.fanins[v];
  };
  auto non_pi = [&](NodeId v) {
    return c.type(v) != GateType::kPi && c.type(v) != GateType::kConst0;
  };
  g.baseline_forward = forward_batches(av.levels, av_fanins, non_pi);

  std::vector<std::vector<NodeId>> av_fanouts(c.num_nodes());
  for (NodeId v = 0; v < c.num_nodes(); ++v)
    for (NodeId u : av.fanins[v]) av_fanouts[u].push_back(v);
  g.baseline_reverse = reverse_batches(av.levels, av_fanouts, non_pi);

  validate_circuit_graph(g);
  return g;
}

void validate_circuit_graph(const CircuitGraph& g) {
  const auto fail = [](const std::string& what) {
    throw Error("CircuitGraph: " + what);
  };
  const auto check_nodes = [&](const std::vector<NodeId>& nodes,
                               const std::string& what) {
    for (NodeId v : nodes)
      if (v >= static_cast<NodeId>(g.num_nodes))
        fail(what + " node " + std::to_string(v) + " out of range [0, " +
             std::to_string(g.num_nodes) + ")");
  };
  if (g.num_nodes < 0) fail("negative node count");
  if (g.features.rows() != g.num_nodes || g.features.cols() != kFeatureDim)
    fail("features are " + g.features.shape_string() + ", expected " +
         std::to_string(g.num_nodes) + "x" + std::to_string(kFeatureDim));
  check_nodes(g.pis, "PI");
  check_nodes(g.consts, "constant");
  if (g.ff_targets.size() != g.ff_sources.size())
    fail("ff_targets/ff_sources size mismatch");
  check_nodes(g.ff_targets, "FF target");
  check_nodes(g.ff_sources, "FF source");

  // Stamp of the last level that claimed each node as a target.
  std::vector<std::size_t> claimed(static_cast<std::size_t>(g.num_nodes), 0);
  std::size_t stamp = 0;
  const std::pair<const std::vector<LevelBatch>*, const char*> schedules[] = {
      {&g.comb_forward, "comb_forward"},
      {&g.comb_reverse, "comb_reverse"},
      {&g.baseline_forward, "baseline_forward"},
      {&g.baseline_reverse, "baseline_reverse"}};
  for (const auto& [levels, name] : schedules) {
    for (std::size_t l = 0; l < levels->size(); ++l) {
      const LevelBatch& b = (*levels)[l];
      const std::string where =
          std::string(name) + " level " + std::to_string(l) + ": ";
      check_nodes(b.targets, where + "target");
      check_nodes(b.sources, where + "source");
      if (b.segment.size() != b.sources.size())
        fail(where + "segment/sources size mismatch");
      for (const int seg : b.segment)
        if (seg < 0 || seg >= static_cast<int>(b.targets.size()))
          fail(where + "segment index " + std::to_string(seg) +
               " out of range [0, " + std::to_string(b.targets.size()) + ")");
      ++stamp;
      for (NodeId v : b.targets) {
        if (claimed[v] == stamp)
          fail(where + "target " + std::to_string(v) + " repeated");
        claimed[v] = stamp;
      }
    }
  }
}

}  // namespace deepseq
