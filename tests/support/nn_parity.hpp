#pragma once

// Shared fixture and helpers of the nn byte-pinning suites
// (tests/nn/test_executor.cpp and tests/core/test_fused_propagation.cpp):
// both must pin the SAME circuit, model presets and loss recipe, or the
// tape digests and the fused-pass parity would silently verify different
// contracts.

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

struct GradRun {
  float loss = 0.0f;
  std::vector<nn::Tensor> grads;  // per params() entry, in order
};

/// One full training step (forward + both L1 heads + backward) on the
/// shared fixture, returning the loss and every parameter gradient. The
/// gradients stay accumulated on the model's parameters, so an optimizer
/// step may follow.
inline GradRun train_step_with(const DeepSeqModel& model) {
  const auto params = model.params();
  for (const auto& [name, p] : params) {
    (void)name;
    if (p->has_grad()) p->grad.zero();
  }
  nn::Graph g(/*grad_enabled=*/true);
  const auto out =
      model.forward(g, parity_fixture().graph, parity_fixture().workload, 7);
  const nn::Tensor target_tr(parity_fixture().graph.num_nodes, 2);
  const nn::Tensor target_lg(parity_fixture().graph.num_nodes, 1);
  const nn::Var loss =
      g.add(g.l1_loss(out.tr, target_tr), g.l1_loss(out.lg, target_lg));
  g.backward(loss);
  GradRun run;
  run.loss = loss->value.at(0, 0);
  for (const auto& [name, p] : params) {
    (void)name;
    run.grads.push_back(p->has_grad() ? p->grad
                                      : nn::Tensor(p->value.rows(),
                                                   p->value.cols()));
  }
  return run;
}

}  // namespace deepseq::testsupport
