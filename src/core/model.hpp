#pragma once

#include <string>
#include <vector>

#include "core/aggregator.hpp"
#include "core/circuit_graph.hpp"
#include "nn/modules.hpp"
#include "sim/workload.hpp"

namespace deepseq {

/// Which message-passing schedule a model uses.
enum class PropagationKind {
  /// Plain DAG pass over the acyclified graph (DAG-ConvGNN / DAG-RecGNN
  /// baselines): every non-PI node, including FFs, updates from its
  /// remaining predecessors; no FF state-copy step.
  kBaselineDag,
  /// The paper's customized sequential propagation (Fig. 2): FFs act as
  /// pseudo primary inputs, forward + reverse passes update combinational
  /// gates only, then FF states are overwritten with their D-predecessor's
  /// state — mimicking the clock edge.
  kDeepSeqCustom,
};

const char* propagation_name(PropagationKind k);

struct ModelConfig {
  AggregatorKind aggregator = AggregatorKind::kDualAttention;
  PropagationKind propagation = PropagationKind::kDeepSeqCustom;
  int iterations = 10;   // T; 1 gives the non-recursive DAG-ConvGNN
  int hidden_dim = 64;
  std::uint64_t seed = 20240301;

  // Named presets matching the rows of Tables II/III.
  static ModelConfig deepseq(int hidden = 64, int t = 10);
  static ModelConfig deepseq_simple_attention(int hidden = 64, int t = 10);
  static ModelConfig dag_conv_gnn(AggregatorKind agg, int hidden = 64);
  static ModelConfig dag_rec_gnn(AggregatorKind agg, int hidden = 64, int t = 10);

  std::string description() const;
};

/// Mix every output-affecting ModelConfig field into `h` — the single field
/// enumeration behind api::deepseq_fingerprint AND the artifact content
/// hash, so the two cache identities can never silently drift when a field
/// is added here.
std::uint64_t mix_config(std::uint64_t h, const ModelConfig& m);

/// The propagation's initial state matrix (N x dim): PIs hold their
/// workload logic-1 probability in every dimension, constants 0, every
/// other node a reproducible uniform-random state drawn from `init_seed`
/// (paper §III-B).
nn::Tensor initial_states(const CircuitGraph& graph, const Workload& w, int dim,
                          std::uint64_t init_seed);

/// The DeepSeq model (and, via ModelConfig, its baselines): initial states
/// from the workload (PIs pinned to their logic-1 probability in every
/// dimension, paper §III-B), T rounds of forward + reverse message passing
/// with GRU combine (Eq. 4/8), and two independent 3-layer MLP regressors
/// predicting transition probabilities (2-d) and logic probability (1-d)
/// per node.
///
/// Propagation runs each level through Aggregator::infer / GruCell::infer
/// on the calling thread. A no-grad Graph runs the fused inference pass:
/// every level over scratch rows of one N x d state tensor, with no op
/// recorded. A grad-enabled Graph records each level as one taped op (a
/// Graph::custom op) that runs the same kernels and keeps the rows and
/// activations its backward reads; that backward runs, in reverse record
/// order, the backward kernels of the ops Aggregator::aggregate and
/// GruCell::apply record. Both modes give bit-identical embeddings, and the
/// gradients are bit-identical to taping every one of those ops
/// (tests/core/test_fused_propagation.cpp).
class DeepSeqModel {
 public:
  explicit DeepSeqModel(const ModelConfig& config);

  const ModelConfig& config() const { return config_; }

  struct Output {
    nn::Var tr;  // N x 2 sigmoid outputs: P(0->1), P(1->0)
    nn::Var lg;  // N x 1 sigmoid output: P(node = 1)
  };

  /// Run the full propagation + regression. `init_seed` makes the random
  /// initialization of non-PI states reproducible per sample.
  Output forward(nn::Graph& g, const CircuitGraph& graph, const Workload& w,
                 std::uint64_t init_seed) const;

  /// Final node embeddings h_v^T (N x hidden), for downstream heads.
  nn::Var embed(nn::Graph& g, const CircuitGraph& graph, const Workload& w,
                std::uint64_t init_seed) const;

  /// Regress an embedding matrix through the task MLPs.
  Output regress(nn::Graph& g, const nn::Var& embeddings) const;

  /// The aggregator and GRU cell of one propagation direction.
  const Aggregator& aggregator(bool reverse) const {
    return reverse ? agg_rev_ : agg_fwd_;
  }
  const nn::GruCell& gru(bool reverse) const {
    return reverse ? gru_rev_ : gru_fwd_;
  }

  nn::NamedParams params() const;
  /// Backbone = everything except the task MLPs (for fine-tuning heads).
  nn::NamedParams backbone_params() const;
  /// The two regression heads alone (the "regression" artifact section).
  nn::NamedParams head_params() const;

  void save(const std::string& path) const;
  void load(const std::string& path);

  /// Copy parameter values from another model with identical architecture
  /// (used to fork a pre-trained model before task-specific fine-tuning, so
  /// the pre-trained weights stay untouched).
  void copy_params_from(const DeepSeqModel& other);

 private:
  nn::Var propagate(nn::Graph& g, const CircuitGraph& graph, const Workload& w,
                    std::uint64_t init_seed) const;

  ModelConfig config_;
  Aggregator agg_fwd_, agg_rev_;
  nn::GruCell gru_fwd_, gru_rev_;
  nn::Mlp mlp_tr_, mlp_lg_;
};

}  // namespace deepseq
