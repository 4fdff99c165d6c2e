#pragma once

#include <string>
#include <vector>

#include "nn/graph.hpp"
#include "nn/modules.hpp"

namespace deepseq {

/// The aggregation functions compared in Tables II/III.
enum class AggregatorKind {
  kConvSum,       // degree-normalized convolutional sum [12]
  kAttention,     // additive attention, DeepGate/DAGNN style [14][16] (Eq. 5)
  kDualAttention  // the paper's contribution (Eq. 5-7)
};

const char* aggregator_name(AggregatorKind k);

/// Parameterized aggregator producing the per-target message matrix.
///
/// Inputs (built by the propagation loop from the state map):
///   hv_prev_targets — (L x d) state of each target before this update
///   hv_prev_edges   — (E x d) target state replicated along its in-edges
///   hu              — (E x d) source states
///   segment         — edge -> target row index
///
/// Output message width is hidden_dim for conv-sum / attention, and
/// 2*hidden_dim for dual attention (m_TR || m_LG, Eq. 7).
class Aggregator {
 public:
  Aggregator() = default;
  Aggregator(AggregatorKind kind, int hidden_dim, Rng& rng, std::string name);

  AggregatorKind kind() const { return kind_; }
  int message_dim() const;

  nn::Var aggregate(nn::Graph& g, const nn::Var& hv_prev_targets,
                    const nn::Var& hv_prev_edges, const nn::Var& hu,
                    const std::vector<int>& segment, int num_targets) const;

  /// What backward() reads besides the level rows and the message: the
  /// attention weights alpha (one per edge) and the transition gate (one
  /// per target). Null where the kind has none.
  struct Activations {
    float* alpha = nullptr;
    float* gate = nullptr;
  };

  /// Inference twin of aggregate(): the same formula over raw level rows
  /// (row-major, hidden_dim wide) into `out` (num_targets x message_dim()),
  /// kernel for kernel, so the message is bit-identical to the recorded
  /// ops. Temporaries come from `s`; the activations go to `keep` when
  /// given.
  void infer(const float* hv_prev_targets, const float* hv_prev_edges,
             const float* hu, const std::vector<int>& segment,
             int num_targets, float* out, nn::Scratch& s,
             const Activations* keep = nullptr) const;

  /// Backward of aggregate() over the rows an infer() ran on. `m` is the
  /// message infer() wrote (row stride ldm) and dm its gradient
  /// (num_targets x message_dim()). Accumulates into the gradients of the
  /// three row blocks that are non-null and of the parameters, running the
  /// taped ops' backward kernels in reverse record order.
  void backward(const float* hv_prev_targets, const float* hv_prev_edges,
                const float* hu, const std::vector<int>& segment,
                int num_targets, const Activations& a, const float* m,
                int ldm, const float* dm, float* dhv_prev_targets,
                float* dhv_prev_edges, float* dhu, nn::Scratch& s) const;

  void collect_params(nn::NamedParams& out) const;

 private:
  AggregatorKind kind_ = AggregatorKind::kConvSum;
  int dim_ = 0;
  std::string name_;
  nn::Linear conv_w_;            // conv-sum
  nn::Var att_w1_, att_w2_;      // Eq. 5 attention scores
  nn::Var gate_w1_, gate_w2_;    // Eq. 6 transition gate (dual attention)
};

}  // namespace deepseq
