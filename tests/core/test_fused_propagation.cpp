// Bit-identity of DeepSeqModel's propagation against the per-op oracle
// (tests/support/nn_parity.hpp), which tapes every kernel of every level as
// its own op. The fused no-grad pass must reproduce the oracle's embedding
// and both regression heads, and one grad-mode training step (one taped op
// per level) its embedding, loss and every parameter gradient; memcmp, for
// every parity preset, on the shared parity fixture and on every Table IV
// design at scale 1/16, design seeds 1 and 2 (FF->FF chains and ptc's tiny
// levels included). ReliabilityModel::estimate must match its grad-mode
// forward. The suite reads DEEPSEQ_NN_SIMD from the environment like the
// rest of ctest, so each CI leg pins the contract at its own setting.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "dataset/test_designs.hpp"
#include "netlist/aig.hpp"
#include "nn/executor.hpp"
#include "reliability/reliability_model.hpp"
#include "support/nn_parity.hpp"

namespace deepseq {
namespace {

using nn::Graph;
using nn::Tensor;
using testsupport::bit_identical;
using testsupport::GradRun;
using testsupport::parity_fixture;
using testsupport::parity_presets;
using testsupport::per_op_embed;
using testsupport::train_step;

constexpr std::uint64_t kInitSeed = 7;

struct Case {
  std::string name;
  CircuitGraph graph;
  Workload workload;
  std::vector<NodeId> pos;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> all = [] {
    std::vector<Case> out;
    const auto& f = parity_fixture();
    out.push_back({"parity_fixture", f.graph, f.workload,
                   std::vector<NodeId>(f.aig.pos().begin(), f.aig.pos().end())});
    for (const std::uint64_t seed : {1u, 2u}) {
      for (TestDesign& td : build_all_test_designs(1.0 / 16, seed)) {
        const Circuit aig = optimize_aig(decompose_to_aig(td.netlist).aig).circuit;
        Rng rng(seed);
        Case c;
        c.name = td.name + "@seed" + std::to_string(seed);
        c.graph = build_circuit_graph(aig);
        c.workload = random_workload(aig, rng);
        c.pos.assign(aig.pos().begin(), aig.pos().end());
        out.push_back(std::move(c));
      }
    }
    return out;
  }();
  return all;
}

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(FusedPropagation, CasesCoverFlipFlopChainsAndTinyLevels) {
  // The parity sweep below is only as strong as its inputs: it must see an
  // FF whose D input is another FF (the two-phase state copy) and a design
  // with single-target levels.
  bool ff_chain = false, tiny_level = false;
  for (const Case& c : cases()) {
    const auto& g = c.graph;
    std::vector<char> is_ff(static_cast<std::size_t>(g.num_nodes), 0);
    for (NodeId v : g.ff_targets) is_ff[v] = 1;
    for (NodeId u : g.ff_sources) ff_chain = ff_chain || is_ff[u] != 0;
    for (const LevelBatch& b : g.comb_forward)
      tiny_level = tiny_level || b.targets.size() == 1;
  }
  EXPECT_TRUE(ff_chain);
  EXPECT_TRUE(tiny_level);
  EXPECT_EQ(cases().size(), 13u);
}

TEST(FusedPropagation, MatchesRecordedPathForEveryPresetAndDesign) {
  for (const ModelConfig& config : parity_presets()) {
    const DeepSeqModel model(config);
    const ReliabilityModel reliability(model);
    for (const Case& c : cases()) {
      const std::string where = config.description() + " on " + c.name;
      Graph fused(/*grad_enabled=*/false);
      const auto fused_out = model.forward(fused, c.graph, c.workload, kInitSeed);
      Graph recorded(/*grad_enabled=*/true);
      const nn::Var emb =
          per_op_embed(recorded, model, c.graph, c.workload, kInitSeed);
      const auto recorded_out = model.regress(recorded, emb);

      Graph fused_embed(/*grad_enabled=*/false);
      EXPECT_TRUE(bit_identical(
          model.embed(fused_embed, c.graph, c.workload, kInitSeed)->value,
          emb->value))
          << where << ": embed";
      EXPECT_TRUE(bit_identical(fused_out.tr->value, recorded_out.tr->value))
          << where << ": tr head";
      EXPECT_TRUE(bit_identical(fused_out.lg->value, recorded_out.lg->value))
          << where << ": lg head";

      // ReliabilityModel::estimate runs the fused pass; rebuild its readout
      // from its grad-mode forward (the forked backbone carries `model`'s
      // weights, so recorded_out.lg is the backbone's logic probability).
      const auto est = reliability.estimate(c.graph, c.workload, c.pos, kInitSeed);
      Graph recorded_err(/*grad_enabled=*/true);
      const Tensor err =
          reliability.forward(recorded_err, c.graph, c.workload, kInitSeed)->value;
      std::vector<double> node_rel(static_cast<std::size_t>(c.graph.num_nodes));
      for (int v = 0; v < c.graph.num_nodes; ++v) {
        const double p1 = recorded_out.lg->value.at(v, 0);
        node_rel[v] = p1 * (1.0 - err.at(v, 1)) + (1.0 - p1) * (1.0 - err.at(v, 0));
      }
      EXPECT_TRUE(same_doubles(est.node_reliability, node_rel))
          << where << ": reliability";
    }
  }
}

TEST(FusedPropagation, GradModeStepMatchesPerOpOracle) {
  // One taped op per level must train exactly like one taped op per kernel:
  // same embedding, loss and parameter gradients, byte for byte.
  for (const ModelConfig& config : parity_presets()) {
    const DeepSeqModel model(config);
    for (const Case& c : cases()) {
      const std::string where = config.description() + " on " + c.name;
      const GradRun oracle = train_step(model, c.graph, c.workload, true);
      const GradRun level = train_step(model, c.graph, c.workload);
      EXPECT_TRUE(bit_identical(level.embedding, oracle.embedding))
          << where << ": embedding";
      EXPECT_EQ(std::memcmp(&level.loss, &oracle.loss, sizeof(float)), 0)
          << where << ": loss " << level.loss << " vs " << oracle.loss;
      ASSERT_EQ(level.grads.size(), oracle.grads.size());
      const nn::NamedParams params = model.params();
      for (std::size_t i = 0; i < level.grads.size(); ++i)
        EXPECT_TRUE(bit_identical(level.grads[i], oracle.grads[i]))
            << where << ": gradient of " << params[i].first;
    }
  }
}

TEST(FusedPropagation, GradModeTapesOneOpPerLevel) {
  // A grad-mode forward tapes one op per level update, T x (forward +
  // reverse levels), then the final gather, the two 3-layer MLP heads
  // (matmul, add_row and an activation per layer: 9 ops each) and here the
  // loss (two L1 terms and their add). Under an ExecTraceScope every one
  // of them is one flush and one step, and backward is one entry.
  const auto& f = parity_fixture();
  const ModelConfig config = ModelConfig::deepseq(32, 2);
  const DeepSeqModel model(config);
  const int levels = static_cast<int>(f.graph.comb_forward.size() +
                                      f.graph.comb_reverse.size());
  const int expected = config.iterations * levels + 1 + 2 * 9 + 3;
  nn::ExecStats stats;
  std::size_t tape = 0;
  {
    nn::ExecTraceScope trace(stats);
    Graph g(/*grad_enabled=*/true);
    const auto out = model.forward(g, f.graph, f.workload, kInitSeed);
    const nn::Var loss =
        g.add(g.l1_loss(out.tr, Tensor(f.graph.num_nodes, 2)),
              g.l1_loss(out.lg, Tensor(f.graph.num_nodes, 1)));
    tape = g.tape_size();
    g.backward(loss);
  }
  EXPECT_EQ(tape, static_cast<std::size_t>(expected));
  EXPECT_EQ(stats.flushes, expected);
  EXPECT_EQ(stats.steps, expected);
  EXPECT_EQ(stats.flush_ms.size(), static_cast<std::size_t>(expected));
  EXPECT_EQ(stats.backward_ms.size(), 1u);
}

TEST(FusedPropagation, TraceReportsSweepsLevelsAndStateRows) {
  // The fused pass records no ops: under an ExecTraceScope it reports one
  // flush per sweep, one step per level and every state row it read, while
  // the ledger-only counters stay 0.
  const auto& f = parity_fixture();
  const ModelConfig config = ModelConfig::deepseq(32, 2);
  const DeepSeqModel model(config);
  nn::ExecStats stats;
  {
    nn::ExecTraceScope trace(stats);
    Graph g(/*grad_enabled=*/false);
    model.embed(g, f.graph, f.workload, kInitSeed);
  }
  int levels = 0, rows = 0;
  for (const auto* sweep : {&f.graph.comb_forward, &f.graph.comb_reverse})
    for (const LevelBatch& b : *sweep) {
      ++levels;
      rows += static_cast<int>(b.targets.size() + 2 * b.sources.size());
    }
  rows += static_cast<int>(f.graph.ff_sources.size());
  const int t = config.iterations;
  EXPECT_EQ(stats.flushes, 2 * t);
  EXPECT_EQ(stats.flush_ms.size(), static_cast<std::size_t>(2 * t));
  EXPECT_EQ(stats.steps, t * levels);
  EXPECT_EQ(stats.slab_gather_rows, t * rows);
  EXPECT_EQ(stats.chains, 0);
  EXPECT_EQ(stats.global_syncs, 0);
}

}  // namespace
}  // namespace deepseq
