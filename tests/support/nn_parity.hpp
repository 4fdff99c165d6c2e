#pragma once

// Shared fixture and helpers of the nn byte-pinning suites
// (tests/nn/test_executor.cpp and tests/core/test_fused_propagation.cpp):
// both must pin the SAME circuit, model presets and loss recipe, or the
// tape digests and the fused-pass parity would silently verify different
// contracts. Also the per-op oracle of DeepSeqModel's propagation, which
// tapes every op of every level.

#include <cstring>
#include <vector>

#include "core/model.hpp"
#include "dataset/generator.hpp"
#include "netlist/aig.hpp"

namespace deepseq::testsupport {

inline bool bit_identical(const nn::Tensor& a, const nn::Tensor& b) {
  if (!a.same_shape(b)) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// A generated sequential circuit with a few hundred gates over dozens of
/// levels: wide enough that every kernel sees multi-row operands.
struct ParityFixture {
  Circuit aig;
  CircuitGraph graph;
  Workload workload;

  ParityFixture() {
    Rng rng(2024);
    GeneratorSpec spec;
    spec.num_gates = 600;
    spec.num_ffs = 40;
    spec.num_pis = 24;
    const Circuit generic = generate_circuit(spec, rng);
    aig = optimize_aig(decompose_to_aig(generic).aig).circuit;
    graph = build_circuit_graph(aig);
    workload = random_workload(aig, rng);
  }
};

inline ParityFixture& parity_fixture() {
  static ParityFixture f;
  return f;
}

inline std::vector<ModelConfig> parity_presets() {
  return {
      ModelConfig::deepseq(32, 2),
      ModelConfig::deepseq_simple_attention(32, 2),
      ModelConfig::dag_conv_gnn(AggregatorKind::kConvSum, 32),
      ModelConfig::dag_rec_gnn(AggregatorKind::kAttention, 32, 2),
  };
}

/// One level of the per-op oracle: gather the operand rows, aggregate and
/// GRU-combine as taped ops (about 36 per level), and repoint the updated
/// nodes' states at the fresh level matrix. DeepSeqModel's grad-mode level
/// op must reproduce its values and gradients byte for byte.
inline void per_op_level(nn::Graph& g, const LevelBatch& batch,
                         const Aggregator& agg, const nn::GruCell& gru,
                         const nn::Var& features,
                         std::vector<nn::RowRef>& state) {
  using nn::RowRef;
  const int num_targets = static_cast<int>(batch.targets.size());
  std::vector<RowRef> target_refs, edge_target_refs, source_refs, feat_refs;
  for (NodeId v : batch.targets) {
    target_refs.push_back(state[v]);
    feat_refs.push_back(RowRef{features, static_cast<int>(v)});
  }
  for (std::size_t e = 0; e < batch.sources.size(); ++e) {
    edge_target_refs.push_back(state[batch.targets[batch.segment[e]]]);
    source_refs.push_back(state[batch.sources[e]]);
  }
  const nn::Var hv_prev = g.gather(target_refs);
  const nn::Var hv_prev_edges = g.gather(edge_target_refs);
  const nn::Var hu = g.gather(source_refs);
  const nn::Var m = agg.aggregate(g, hv_prev, hv_prev_edges, hu, batch.segment,
                                  num_targets);
  const nn::Var x = g.concat_cols({m, g.gather(feat_refs)});
  const nn::Var h_new = gru.apply(g, x, hv_prev);
  for (int i = 0; i < num_targets; ++i)
    state[batch.targets[i]] = RowRef{h_new, i};
}

/// The per-op oracle of DeepSeqModel::embed: the same propagation with
/// every kernel of every level taped as its own op.
inline nn::Var per_op_embed(nn::Graph& g, const DeepSeqModel& model,
                            const CircuitGraph& graph, const Workload& w,
                            std::uint64_t init_seed) {
  const ModelConfig& config = model.config();
  const bool custom = config.propagation == PropagationKind::kDeepSeqCustom;
  const auto& fwd = custom ? graph.comb_forward : graph.baseline_forward;
  const auto& rev = custom ? graph.comb_reverse : graph.baseline_reverse;
  const nn::Var features = g.constant(graph.features);
  const nn::Var h0 =
      g.constant(initial_states(graph, w, config.hidden_dim, init_seed));
  std::vector<nn::RowRef> state;
  for (int v = 0; v < graph.num_nodes; ++v) state.push_back(nn::RowRef{h0, v});
  for (int t = 0; t < config.iterations; ++t) {
    for (const LevelBatch& batch : fwd)
      per_op_level(g, batch, model.aggregator(false), model.gru(false),
                   features, state);
    for (const LevelBatch& batch : rev)
      per_op_level(g, batch, model.aggregator(true), model.gru(true), features,
                   state);
    if (custom) {
      std::vector<nn::RowRef> next;
      for (NodeId u : graph.ff_sources) next.push_back(state[u]);
      for (std::size_t k = 0; k < graph.ff_targets.size(); ++k)
        state[graph.ff_targets[k]] = next[k];
    }
  }
  return g.gather(state);
}

struct GradRun {
  nn::Tensor embedding;  // the grad-mode embedding the step ran on
  float loss = 0.0f;
  std::vector<nn::Tensor> grads;  // per params() entry, in order
};

/// One full training step (embed, both regression heads, both L1 losses,
/// backward) on `graph`, through the model's own grad-mode propagation or,
/// with `per_op`, through per_op_embed. Returns the embedding, the loss
/// and every parameter gradient; the gradients stay accumulated on the
/// model's parameters, so an optimizer step may follow.
inline GradRun train_step(const DeepSeqModel& model, const CircuitGraph& graph,
                          const Workload& w, bool per_op = false) {
  const auto params = model.params();
  for (const auto& [name, p] : params) {
    (void)name;
    if (p->has_grad()) p->grad.zero();
  }
  nn::Graph g(/*grad_enabled=*/true);
  const nn::Var emb = per_op ? per_op_embed(g, model, graph, w, 7)
                             : model.embed(g, graph, w, 7);
  const auto out = model.regress(g, emb);
  const nn::Tensor target_tr(graph.num_nodes, 2);
  const nn::Tensor target_lg(graph.num_nodes, 1);
  const nn::Var loss =
      g.add(g.l1_loss(out.tr, target_tr), g.l1_loss(out.lg, target_lg));
  g.backward(loss);
  GradRun run;
  run.embedding = emb->value;
  run.loss = loss->value.at(0, 0);
  for (const auto& [name, p] : params) {
    (void)name;
    run.grads.push_back(p->has_grad() ? p->grad
                                      : nn::Tensor(p->value.rows(),
                                                   p->value.cols()));
  }
  return run;
}

/// train_step on the shared fixture.
inline GradRun train_step_with(const DeepSeqModel& model) {
  return train_step(model, parity_fixture().graph, parity_fixture().workload);
}

}  // namespace deepseq::testsupport
