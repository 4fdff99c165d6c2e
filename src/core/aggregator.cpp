#include "core/aggregator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "nn/kernels.hpp"

namespace deepseq {

using nn::Graph;
using nn::Tensor;
using nn::Var;

namespace {

/// Conv-sum degree normalizer: 1 / in-degree per target (0 when a target
/// has no edges), shared by both aggregation paths.
void inverse_degree(const std::vector<int>& segment, int num_targets,
                    float* out) {
  std::fill(out, out + num_targets, 0.0f);
  for (const int s : segment) out[s] += 1.0f;
  for (int i = 0; i < num_targets; ++i)
    out[i] = out[i] > 0 ? 1.0f / out[i] : 0.0f;
}

/// out (rows x 1) = a w1 + b w2: the Eq. 5/6 additive-attention logits as
/// the recorded add(matmul, matmul) computes them.
void attention_logits(const float* a, const float* b, const Var& w1,
                      const Var& w2, int rows, int dim, float* out,
                      nn::Scratch& s) {
  float* bw = s.zeros(static_cast<std::size_t>(rows));
  std::fill(out, out + rows, 0.0f);
  nn::kernels::matmul_rows(a, dim, w1->value.data(), 1, out, 1, rows, dim, 1);
  nn::kernels::matmul_rows(b, dim, w2->value.data(), 1, bw, 1, rows, dim, 1);
  nn::kernels::add(out, out, bw, static_cast<std::size_t>(rows));
}

}  // namespace

const char* aggregator_name(AggregatorKind k) {
  switch (k) {
    case AggregatorKind::kConvSum: return "Conv. Sum";
    case AggregatorKind::kAttention: return "Attention";
    case AggregatorKind::kDualAttention: return "Dual Attention";
  }
  return "?";
}

Aggregator::Aggregator(AggregatorKind kind, int hidden_dim, Rng& rng,
                       std::string name)
    : kind_(kind), dim_(hidden_dim), name_(std::move(name)) {
  switch (kind_) {
    case AggregatorKind::kConvSum:
      conv_w_ = nn::Linear(hidden_dim, hidden_dim, rng, name_ + ".conv");
      break;
    case AggregatorKind::kDualAttention:
      gate_w1_ = nn::make_param(Tensor::xavier(hidden_dim, 1, rng));
      gate_w2_ = nn::make_param(Tensor::xavier(hidden_dim, 1, rng));
      [[fallthrough]];
    case AggregatorKind::kAttention:
      att_w1_ = nn::make_param(Tensor::xavier(hidden_dim, 1, rng));
      att_w2_ = nn::make_param(Tensor::xavier(hidden_dim, 1, rng));
      break;
  }
}

int Aggregator::message_dim() const {
  return kind_ == AggregatorKind::kDualAttention ? 2 * dim_ : dim_;
}

Var Aggregator::aggregate(Graph& g, const Var& hv_prev_targets,
                          const Var& hv_prev_edges, const Var& hu,
                          const std::vector<int>& segment,
                          int num_targets) const {
  switch (kind_) {
    case AggregatorKind::kConvSum: {
      // Degree-normalized sum of linearly transformed source states.
      const Var lin = conv_w_.apply(g, hu);
      const Var summed = g.segment_sum(lin, segment, num_targets);
      Tensor inv_deg(num_targets, 1);
      inverse_degree(segment, num_targets, inv_deg.data());
      return g.mul_col(summed, g.constant(std::move(inv_deg)));
    }
    case AggregatorKind::kAttention: {
      // Eq. 5: alpha_uv = softmax_u(w1^T h_v^(t-1) + w2^T h_u^t).
      const Var scores =
          g.add(g.matmul(hv_prev_edges, att_w1_), g.matmul(hu, att_w2_));
      const Var alpha = g.segment_softmax(scores, segment, num_targets);
      return g.segment_sum(g.mul_col(hu, alpha), segment, num_targets);
    }
    case AggregatorKind::kDualAttention: {
      // Eq. 5 for the logic-probability message m_LG.
      const Var scores =
          g.add(g.matmul(hv_prev_edges, att_w1_), g.matmul(hu, att_w2_));
      const Var alpha = g.segment_softmax(scores, segment, num_targets);
      const Var m_lg = g.segment_sum(g.mul_col(hu, alpha), segment, num_targets);
      // Eq. 6: a gate between the node's previous state and its fresh logic
      // message. The paper writes this as a softmax over a single logit,
      // which is identically one; we realize the additive-attention form as
      // a sigmoid gate, sigmoid(h_v W1 + m_LG W2), scaling m_LG.
      const Var gate_scores =
          g.add(g.matmul(hv_prev_targets, gate_w1_), g.matmul(m_lg, gate_w2_));
      const Var m_tr = g.mul_col(m_lg, g.sigmoid(gate_scores));
      // Eq. 7: final message m_TR || m_LG.
      return g.concat_cols({m_tr, m_lg});
    }
  }
  throw Error("Aggregator::aggregate: unknown kind");
}

void Aggregator::infer(const float* hv_prev_targets, const float* hv_prev_edges,
                       const float* hu, const std::vector<int>& segment,
                       int num_targets, float* out, nn::Scratch& s,
                       const Activations* keep) const {
  const int edges = static_cast<int>(segment.size());
  const std::size_t d = static_cast<std::size_t>(dim_);
  const std::size_t target_elems = static_cast<std::size_t>(num_targets) * d;
  const std::size_t edge_elems = static_cast<std::size_t>(edges) * d;
  const auto segment_sum = [&](const float* values, float* dst) {
    std::fill(dst, dst + target_elems, 0.0f);
    nn::kernels::segment_sum(dst, values, segment.data(),
                             static_cast<std::size_t>(edges), d);
  };
  switch (kind_) {
    case AggregatorKind::kConvSum: {
      float* lin = s.take(edge_elems);
      conv_w_.infer(hu, edges, lin);
      float* summed = s.take(target_elems);
      segment_sum(lin, summed);
      float* inv_deg = s.take(static_cast<std::size_t>(num_targets));
      inverse_degree(segment, num_targets, inv_deg);
      nn::kernels::mul_col(out, summed, inv_deg,
                           static_cast<std::size_t>(num_targets), d);
      return;
    }
    case AggregatorKind::kAttention:
    case AggregatorKind::kDualAttention: {
      // Eq. 5: m_LG = sum_u alpha_uv h_u.
      float* scores = s.take(static_cast<std::size_t>(edges));
      attention_logits(hv_prev_edges, hu, att_w1_, att_w2_, edges, dim_,
                       scores, s);
      float* alpha = keep != nullptr ? keep->alpha
                                     : s.take(static_cast<std::size_t>(edges));
      nn::kernels::segment_softmax(alpha, scores, segment.data(),
                                   static_cast<std::size_t>(edges),
                                   num_targets);
      float* weighted = s.take(edge_elems);
      nn::kernels::mul_col(weighted, hu, alpha,
                           static_cast<std::size_t>(edges), d);
      if (kind_ == AggregatorKind::kAttention) {
        segment_sum(weighted, out);
        return;
      }
      float* m_lg = s.take(target_elems);
      segment_sum(weighted, m_lg);
      // Eq. 6 gate, then Eq. 7: out = m_TR || m_LG.
      float* gate = keep != nullptr
                        ? keep->gate
                        : s.take(static_cast<std::size_t>(num_targets));
      attention_logits(hv_prev_targets, m_lg, gate_w1_, gate_w2_, num_targets,
                       dim_, gate, s);
      nn::kernels::sigmoid(gate, gate, static_cast<std::size_t>(num_targets));
      float* m_tr = s.take(target_elems);
      nn::kernels::mul_col(m_tr, m_lg, gate,
                           static_cast<std::size_t>(num_targets), d);
      for (std::size_t i = 0; i < static_cast<std::size_t>(num_targets); ++i) {
        std::copy_n(m_tr + i * d, d, out + i * 2 * d);
        std::copy_n(m_lg + i * d, d, out + i * 2 * d + d);
      }
      return;
    }
  }
  throw Error("Aggregator::infer: unknown kind");
}

// The taped aggregate() records, for the attention kinds: the two logit
// matmuls and their add, segment_softmax, mul_col(hu, alpha), segment_sum;
// then, for dual attention, the gate's two matmuls and add, sigmoid,
// mul_col(m_LG, gate) and the concat. backward() runs their backward kernels
// in the reverse of that order. A gradient buffer starts at +0.0 and only
// accumulates, so it never holds -0.0, and the pass-through of add and
// concat (0 + g) is g itself.
void Aggregator::backward(const float* hv_prev_targets,
                          const float* hv_prev_edges, const float* hu,
                          const std::vector<int>& segment, int num_targets,
                          const Activations& a, const float* m, int ldm,
                          const float* dm, float* dhv_prev_targets,
                          float* dhv_prev_edges, float* dhu,
                          nn::Scratch& s) const {
  const std::size_t edges = segment.size();
  const std::size_t targets = static_cast<std::size_t>(num_targets);
  const std::size_t d = static_cast<std::size_t>(dim_);
  const int e = static_cast<int>(edges);
  // matmul(rows, w), w a d x 1 logit weight and `rows` at row stride ld,
  // given the logits' gradient.
  const auto logit = [&](const float* rows, int ld, float* drows, int count,
                         const Var& w, const float* dlogit) {
    if (drows != nullptr)
      nn::kernels::matmul_nt_acc(dlogit, 1, w->value.data(), 1, drows, dim_,
                                 count, 1, dim_);
    if (float* dw = w->grad_target())
      nn::kernels::matmul_tn_acc(rows, ld, dlogit, 1, dw, 1, count, dim_, 1);
  };
  if (kind_ == AggregatorKind::kConvSum) {
    // m = mul_col(segment_sum(hu W + b), 1 / in-degree)
    float* inv_deg = s.take(targets);
    inverse_degree(segment, num_targets, inv_deg);
    float* dsummed = s.zeros(targets * d);
    nn::kernels::mul_col_backward_values(dsummed, dm, inv_deg, targets, d);
    float* dlin = s.zeros(edges * d);
    nn::kernels::segment_sum_backward(dlin, dsummed, segment.data(), edges, d);
    conv_w_.backward(hu, e, dlin, dhu);
    return;
  }
  // dm_lg: the gradient of m_LG = sum_u alpha_uv h_u.
  const float* dm_lg = dm;
  if (kind_ == AggregatorKind::kDualAttention) {
    // concat(m_TR, m_LG): each half's gradient is its columns of dm.
    float* dm_tr = s.take(targets * d);
    float* dlg = s.take(targets * d);
    for (std::size_t i = 0; i < targets; ++i) {
      std::copy_n(dm + i * 2 * d, d, dm_tr + i * d);
      std::copy_n(dm + i * 2 * d + d, d, dlg + i * d);
    }
    // m_TR = mul_col(m_LG, gate), gate = sigmoid(h_v W1 + m_LG W2)
    const float* m_lg = m + d;
    nn::kernels::mul_col_backward_values(dlg, dm_tr, a.gate, targets, d);
    float* dgate = s.zeros(targets);
    nn::kernels::mul_col_backward_col(dgate, dm_tr, m_lg,
                                      static_cast<std::size_t>(ldm), targets, d);
    float* dlogit = s.zeros(targets);
    nn::kernels::sigmoid_backward(dlogit, dgate, a.gate, targets);
    logit(m_lg, ldm, dlg, num_targets, gate_w2_, dlogit);
    logit(hv_prev_targets, dim_, dhv_prev_targets, num_targets, gate_w1_,
          dlogit);
    dm_lg = dlg;
  }
  // m_LG = segment_sum(mul_col(hu, alpha)), alpha = segment_softmax(logits)
  float* dweighted = s.zeros(edges * d);
  nn::kernels::segment_sum_backward(dweighted, dm_lg, segment.data(), edges, d);
  if (dhu != nullptr)
    nn::kernels::mul_col_backward_values(dhu, dweighted, a.alpha, edges, d);
  float* dalpha = s.zeros(edges);
  nn::kernels::mul_col_backward_col(dalpha, dweighted, hu, d, edges, d);
  float* dlogit = s.zeros(edges);
  nn::kernels::segment_softmax_backward(dlogit, dalpha, a.alpha, segment.data(),
                                        edges, num_targets);
  logit(hu, dim_, dhu, e, att_w2_, dlogit);
  logit(hv_prev_edges, dim_, dhv_prev_edges, e, att_w1_, dlogit);
}

void Aggregator::collect_params(nn::NamedParams& out) const {
  switch (kind_) {
    case AggregatorKind::kConvSum:
      conv_w_.collect_params(out);
      break;
    case AggregatorKind::kDualAttention:
      out.emplace_back(name_ + ".gate_w1", gate_w1_);
      out.emplace_back(name_ + ".gate_w2", gate_w2_);
      [[fallthrough]];
    case AggregatorKind::kAttention:
      out.emplace_back(name_ + ".att_w1", att_w1_);
      out.emplace_back(name_ + ".att_w2", att_w2_);
      break;
  }
}

}  // namespace deepseq
