#include "core/circuit_graph.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dataset/embedded.hpp"
#include "netlist/aig.hpp"

namespace deepseq {
namespace {

Circuit s27_aig() { return decompose_to_aig(iscas89_s27()).aig; }

TEST(CircuitGraph, FeatureOneHot) {
  const Circuit aig = s27_aig();
  const CircuitGraph g = build_circuit_graph(aig);
  EXPECT_EQ(g.features.rows(), static_cast<int>(aig.num_nodes()));
  EXPECT_EQ(g.features.cols(), kFeatureDim);
  for (NodeId v = 0; v < aig.num_nodes(); ++v) {
    float sum = 0.0f;
    for (int c = 0; c < kFeatureDim; ++c) sum += g.features.at(v, c);
    EXPECT_FLOAT_EQ(sum, 1.0f) << "node " << v;
    EXPECT_FLOAT_EQ(g.features.at(v, feature_index(aig.type(v))), 1.0f);
  }
}

TEST(CircuitGraph, FeatureIndexRejectsGenericTypes) {
  EXPECT_THROW(feature_index(GateType::kXor), CircuitError);
  EXPECT_THROW(feature_index(GateType::kMux), CircuitError);
}

TEST(CircuitGraph, Const0IsTreatedAsPinnedPseudoPi) {
  // Optimization keeps a CONST0 when a PO cone is constant; the GNN views
  // it as a primary input pinned to logic-1 probability 0.
  EXPECT_EQ(feature_index(GateType::kConst0), feature_index(GateType::kPi));
  Circuit c("const_po");
  const NodeId a = c.add_pi("a");
  const NodeId zero = c.add_const0("z");
  const NodeId g1 = c.add_and(a, zero, "g1");
  c.add_po(g1, "y");
  c.add_po(zero, "y0");
  const CircuitGraph graph = build_circuit_graph(c);
  ASSERT_EQ(graph.consts.size(), 1u);
  EXPECT_EQ(graph.consts[0], zero);
  // CONST0 must never be an update target in any schedule.
  for (const auto* batches :
       {&graph.comb_forward, &graph.comb_reverse, &graph.baseline_forward,
        &graph.baseline_reverse})
    for (const auto& batch : *batches)
      for (NodeId t : batch.targets) EXPECT_NE(t, zero);
}

TEST(CircuitGraph, RejectsNonAigCircuit) {
  EXPECT_THROW(build_circuit_graph(iscas89_s27()), CircuitError);
}

TEST(CircuitGraph, ForwardBatchesCoverAllGatesOnce) {
  const Circuit aig = s27_aig();
  const CircuitGraph g = build_circuit_graph(aig);
  std::vector<int> seen(aig.num_nodes(), 0);
  for (const auto& batch : g.comb_forward)
    for (NodeId v : batch.targets) ++seen[v];
  for (NodeId v = 0; v < aig.num_nodes(); ++v) {
    const bool gate = aig.type(v) == GateType::kAnd || aig.type(v) == GateType::kNot;
    EXPECT_EQ(seen[v], gate ? 1 : 0) << "node " << v;
  }
}

TEST(CircuitGraph, ForwardEdgesMatchFanins) {
  const Circuit aig = s27_aig();
  const CircuitGraph g = build_circuit_graph(aig);
  for (const auto& batch : g.comb_forward) {
    ASSERT_EQ(batch.sources.size(), batch.segment.size());
    // Each target's incoming sources are exactly its fanins.
    std::vector<std::vector<NodeId>> per_target(batch.targets.size());
    for (std::size_t e = 0; e < batch.sources.size(); ++e)
      per_target[batch.segment[e]].push_back(batch.sources[e]);
    for (std::size_t t = 0; t < batch.targets.size(); ++t) {
      const NodeId v = batch.targets[t];
      ASSERT_EQ(per_target[t].size(),
                static_cast<std::size_t>(aig.num_fanins(v)));
      for (int i = 0; i < aig.num_fanins(v); ++i)
        EXPECT_EQ(per_target[t][i], aig.fanin(v, i));
    }
  }
}

TEST(CircuitGraph, ForwardLevelsRespectDependencies) {
  // Within the forward schedule, a gate's fanin gates must appear in an
  // earlier batch (levelized execution).
  const Circuit aig = s27_aig();
  const CircuitGraph g = build_circuit_graph(aig);
  std::vector<int> batch_of(aig.num_nodes(), -1);
  for (std::size_t bi = 0; bi < g.comb_forward.size(); ++bi)
    for (NodeId v : g.comb_forward[bi].targets)
      batch_of[v] = static_cast<int>(bi);
  for (const auto& batch : g.comb_forward) {
    for (std::size_t e = 0; e < batch.sources.size(); ++e) {
      const NodeId tgt = batch.targets[batch.segment[e]];
      const NodeId src = batch.sources[e];
      if (batch_of[src] >= 0) {
        EXPECT_LT(batch_of[src], batch_of[tgt]);
      }
    }
  }
}

TEST(CircuitGraph, ReverseUsesFanouts) {
  const Circuit aig = s27_aig();
  const CircuitGraph g = build_circuit_graph(aig);
  const auto fanouts = aig.fanouts();
  for (const auto& batch : g.comb_reverse) {
    std::vector<std::vector<NodeId>> per_target(batch.targets.size());
    for (std::size_t e = 0; e < batch.sources.size(); ++e)
      per_target[batch.segment[e]].push_back(batch.sources[e]);
    for (std::size_t t = 0; t < batch.targets.size(); ++t) {
      EXPECT_EQ(per_target[t].size(), fanouts[batch.targets[t]].size());
    }
  }
}

TEST(CircuitGraph, FfCopyPairsMatchDInputs) {
  const Circuit aig = s27_aig();
  const CircuitGraph g = build_circuit_graph(aig);
  ASSERT_EQ(g.ff_targets.size(), aig.ffs().size());
  for (std::size_t k = 0; k < g.ff_targets.size(); ++k) {
    EXPECT_EQ(g.ff_targets[k], aig.ffs()[k]);
    EXPECT_EQ(g.ff_sources[k], aig.fanin(aig.ffs()[k], 0));
  }
}

TEST(CircuitGraph, BaselineScheduleUpdatesFfs) {
  // In the baseline (acyclified) schedule, FFs with surviving in-edges are
  // regular targets — unlike the customized schedule.
  const Circuit aig = s27_aig();
  const CircuitGraph g = build_circuit_graph(aig);
  bool ff_in_baseline = false;
  for (const auto& batch : g.baseline_forward)
    for (NodeId v : batch.targets)
      if (aig.type(v) == GateType::kFf) ff_in_baseline = true;
  EXPECT_TRUE(ff_in_baseline);

  for (const auto& batch : g.comb_forward)
    for (NodeId v : batch.targets)
      EXPECT_NE(aig.type(v), GateType::kFf);
}

TEST(CircuitGraph, PisNeverTargets) {
  const Circuit aig = s27_aig();
  const CircuitGraph g = build_circuit_graph(aig);
  for (const auto* sched : {&g.comb_forward, &g.comb_reverse,
                            &g.baseline_forward, &g.baseline_reverse}) {
    for (const auto& batch : *sched)
      for (NodeId v : batch.targets) EXPECT_NE(aig.type(v), GateType::kPi);
  }
}

TEST(CircuitGraph, PisRecorded) {
  const Circuit aig = s27_aig();
  const CircuitGraph g = build_circuit_graph(aig);
  EXPECT_EQ(g.pis, aig.pis());
}

// ---- index contract of the fused inference pass ------------------------------

TEST(CircuitGraph, ValidationAcceptsBuiltGraphs) {
  EXPECT_NO_THROW(validate_circuit_graph(build_circuit_graph(s27_aig())));
}

TEST(CircuitGraph, ValidationRejectsHandCorruptedCopies) {
  // Each corruption of a real graph must fail fast with a typed error:
  // the fused pass indexes state rows directly and checks nothing per embed.
  const CircuitGraph good = build_circuit_graph(s27_aig());
  ASSERT_FALSE(good.comb_forward.empty());
  ASSERT_FALSE(good.comb_reverse.empty());
  ASSERT_FALSE(good.ff_targets.empty());
  const NodeId past_end = static_cast<NodeId>(good.num_nodes);
  auto level_with_two_targets = [](std::vector<LevelBatch>& levels) -> LevelBatch& {
    for (LevelBatch& b : levels)
      if (b.targets.size() >= 2) return b;
    throw Error("no level with two targets");
  };
  auto expect_rejected = [&](const char* what, auto&& corrupt) {
    CircuitGraph bad = good;
    corrupt(bad);
    EXPECT_THROW(validate_circuit_graph(bad), Error) << what;
  };
  expect_rejected("repeated target", [&](CircuitGraph& g) {
    LevelBatch& b = level_with_two_targets(g.comb_forward);
    b.targets[1] = b.targets[0];
  });
  expect_rejected("repeated reverse target", [&](CircuitGraph& g) {
    LevelBatch& b = level_with_two_targets(g.comb_reverse);
    b.targets.back() = b.targets.front();
  });
  expect_rejected("target out of range",
                  [&](CircuitGraph& g) { g.comb_forward[0].targets[0] = past_end; });
  expect_rejected("source out of range",
                  [&](CircuitGraph& g) { g.comb_reverse[0].sources[0] = past_end; });
  expect_rejected("segment out of range", [&](CircuitGraph& g) {
    LevelBatch& b = g.baseline_forward[0];
    b.segment[0] = static_cast<int>(b.targets.size());
  });
  expect_rejected("negative segment",
                  [&](CircuitGraph& g) { g.baseline_reverse[0].segment[0] = -1; });
  expect_rejected("segment/source length mismatch",
                  [&](CircuitGraph& g) { g.comb_forward[0].segment.pop_back(); });
  expect_rejected("FF target out of range",
                  [&](CircuitGraph& g) { g.ff_targets[0] = past_end; });
  expect_rejected("FF source out of range",
                  [&](CircuitGraph& g) { g.ff_sources[0] = past_end; });
  expect_rejected("FF pair mismatch",
                  [&](CircuitGraph& g) { g.ff_sources.pop_back(); });
  expect_rejected("PI out of range", [&](CircuitGraph& g) { g.pis[0] = past_end; });
  expect_rejected("feature rows", [&](CircuitGraph& g) {
    g.features = nn::Tensor(g.num_nodes - 1, kFeatureDim);
  });
}

}  // namespace
}  // namespace deepseq
