#include "core/model.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "netlist/structural_hash.hpp"
#include "nn/executor.hpp"
#include "nn/kernels.hpp"
#include "nn/serialize.hpp"

namespace deepseq {

using nn::Graph;
using nn::RowRef;
using nn::Tensor;
using nn::Var;

const char* propagation_name(PropagationKind k) {
  switch (k) {
    case PropagationKind::kBaselineDag: return "plain DAG";
    case PropagationKind::kDeepSeqCustom: return "customized";
  }
  return "?";
}

ModelConfig ModelConfig::deepseq(int hidden, int t) {
  ModelConfig c;
  c.aggregator = AggregatorKind::kDualAttention;
  c.propagation = PropagationKind::kDeepSeqCustom;
  c.hidden_dim = hidden;
  c.iterations = t;
  return c;
}

ModelConfig ModelConfig::deepseq_simple_attention(int hidden, int t) {
  ModelConfig c = deepseq(hidden, t);
  c.aggregator = AggregatorKind::kAttention;
  return c;
}

ModelConfig ModelConfig::dag_conv_gnn(AggregatorKind agg, int hidden) {
  ModelConfig c;
  c.aggregator = agg;
  c.propagation = PropagationKind::kBaselineDag;
  c.hidden_dim = hidden;
  c.iterations = 1;
  return c;
}

ModelConfig ModelConfig::dag_rec_gnn(AggregatorKind agg, int hidden, int t) {
  ModelConfig c = dag_conv_gnn(agg, hidden);
  c.iterations = t;
  return c;
}

std::uint64_t mix_config(std::uint64_t h, const ModelConfig& m) {
  h = hash_mix(h, static_cast<std::uint64_t>(m.aggregator));
  h = hash_mix(h, static_cast<std::uint64_t>(m.propagation));
  h = hash_mix(h, static_cast<std::uint64_t>(m.iterations));
  h = hash_mix(h, static_cast<std::uint64_t>(m.hidden_dim));
  return hash_mix(h, m.seed);
}

std::string ModelConfig::description() const {
  std::string base;
  if (propagation == PropagationKind::kDeepSeqCustom) {
    base = "DeepSeq";
  } else {
    base = iterations > 1 ? "DAG-RecGNN" : "DAG-ConvGNN";
  }
  return base + " / " + aggregator_name(aggregator);
}

DeepSeqModel::DeepSeqModel(const ModelConfig& config) : config_(config) {
  Rng rng(config.seed);
  const int d = config.hidden_dim;
  agg_fwd_ = Aggregator(config.aggregator, d, rng, "agg_fwd");
  agg_rev_ = Aggregator(config.aggregator, d, rng, "agg_rev");
  const int in_dim = agg_fwd_.message_dim() + kFeatureDim;
  gru_fwd_ = nn::GruCell(in_dim, d, rng, "gru_fwd");
  gru_rev_ = nn::GruCell(in_dim, d, rng, "gru_rev");
  mlp_tr_ = nn::Mlp({d, d, d, 2}, nn::Activation::kSigmoid, rng, "mlp_tr");
  mlp_lg_ = nn::Mlp({d, d, d, 1}, nn::Activation::kSigmoid, rng, "mlp_lg");
}

Tensor initial_states(const CircuitGraph& graph, const Workload& w, int dim,
                      std::uint64_t init_seed) {
  if (w.pi_prob.size() != graph.pis.size())
    throw Error("DeepSeqModel: workload has " + std::to_string(w.pi_prob.size()) +
                " PI probabilities, circuit has " + std::to_string(graph.pis.size()));
  Rng rng(init_seed);
  Tensor h0(graph.num_nodes, dim);
  for (std::size_t i = 0; i < h0.size(); ++i)
    h0.data()[i] = static_cast<float>(rng.uniform());
  for (std::size_t k = 0; k < graph.pis.size(); ++k) {
    float* row = h0.row(static_cast<int>(graph.pis[k]));
    for (int c = 0; c < dim; ++c) row[c] = static_cast<float>(w.pi_prob[k]);
  }
  for (NodeId v : graph.consts) {
    float* row = h0.row(static_cast<int>(v));
    for (int c = 0; c < dim; ++c) row[c] = 0.0f;
  }
  return h0;
}

namespace {

/// The fused level formula over a level's operand rows: `rows` holds the
/// targets' states, then the targets' states along their in-edges (one
/// per edge), then the sources' states. Writes x = m || the targets'
/// features (the recorded concat_cols) to `x` and out = GRU(x, targets'
/// states) to `out`; either may be null, to be taken from `s` once the
/// message is computed. The activations go to the keeps when given.
/// Returns out.
float* level_formula(const LevelBatch& batch, const Tensor& features,
                     const Aggregator& agg, const nn::GruCell& gru,
                     const float* rows, float* x, float* out, nn::Scratch& s,
                     const Aggregator::Activations* agg_keep = nullptr,
                     const nn::GruCell::Activations* gru_keep = nullptr) {
  const std::size_t d = static_cast<std::size_t>(gru.hidden_dim());
  const std::size_t t = batch.targets.size();
  const int targets = static_cast<int>(t);
  const float* hv_prev_edges = rows + t * d;
  const float* hu = hv_prev_edges + batch.segment.size() * d;
  const std::size_t m_dim = static_cast<std::size_t>(agg.message_dim());
  const std::size_t in_dim = m_dim + kFeatureDim;
  float* m = s.take(t * m_dim);
  agg.infer(rows, hv_prev_edges, hu, batch.segment, targets, m, s, agg_keep);
  if (x == nullptr) x = s.take(t * in_dim);
  for (std::size_t i = 0; i < t; ++i) {
    std::copy_n(m + i * m_dim, m_dim, x + i * in_dim);
    std::copy_n(features.row(static_cast<int>(batch.targets[i])), kFeatureDim,
                x + i * in_dim + m_dim);
  }
  if (out == nullptr) out = s.take(t * d);
  gru.infer(x, rows, targets, out, s, gru_keep);
  return out;
}

/// Calls `read(v)` for every operand row of `batch` in level_formula's
/// order: targets, edge targets, sources.
template <typename Read>
void for_each_operand(const LevelBatch& batch, Read&& read) {
  for (NodeId v : batch.targets) read(v);
  for (int s : batch.segment) read(batch.targets[s]);
  for (NodeId u : batch.sources) read(u);
}

/// Scratch for the level ops' kernels: a forward runs while its op is
/// recorded and a backward inside Graph::backward, one at a time per thread.
nn::Scratch& level_scratch() {
  thread_local nn::Scratch s;
  return s;
}

/// One row a level op reads: row `row` of `node`'s value.
struct LevelRow {
  nn::VarNode* node;
  int row;
};

/// One grad-mode level update as one taped op (Graph::custom). The forward
/// is the fused level: it copies the operand rows out of the earlier level
/// outputs and runs level_formula, keeping what the backward reads: the
/// rows, alpha, the gate, x and the GRU's z, r, r*h and n. The backward
/// runs the backward kernels of the ops Aggregator::aggregate and
/// GruCell::apply tape, in their reverse record order: the GRU, the concat,
/// the aggregator, then the row scatters of the sources, the edge targets
/// and the targets (the reverse of the three gathers). Every gradient
/// element therefore accumulates in the order it did with one taped op per
/// kernel.
class LevelOp final : public nn::CustomKernels {
 public:
  /// `rows` lists the operand rows in level_formula's order. `batch` and
  /// `features` are read only by forward(), which runs while the op is
  /// recorded; the aggregator and cell must outlive the op.
  LevelOp(const LevelBatch& batch, const Aggregator& agg,
          const nn::GruCell& gru, const Tensor& features,
          std::vector<LevelRow> rows)
      : batch_(&batch),
        features_(&features),
        agg_(agg),
        gru_(gru),
        segment_(batch.segment),
        rows_(std::move(rows)),
        targets_(static_cast<int>(batch.targets.size())),
        d_(static_cast<std::size_t>(gru.hidden_dim())) {
    const std::size_t t = batch.targets.size();
    const std::size_t e = segment_.size();
    const auto needs = [&](std::size_t first, std::size_t count) {
      for (std::size_t i = first; i < first + count; ++i)
        if (rows_[i].node->requires_grad) return true;
      return false;
    };
    const bool attention = agg.kind() != AggregatorKind::kConvSum;
    const bool dual = agg.kind() == AggregatorKind::kDualAttention;
    need_dhv_ = needs(0, t);
    need_dhve_ = attention && needs(t, e);  // conv-sum never reads them
    need_dhu_ = needs(t + e, e);
    const std::size_t in_dim = static_cast<std::size_t>(gru.in_dim());
    saved_.resize(rows_.size() * d_ + (attention ? e : 0) + (dual ? t : 0) +
                  t * in_dim + 4 * t * d_);
    float* p = saved_.data();
    const auto take = [&p](std::size_t n) {
      float* out = p;
      p += n;
      return out;
    };
    rows_buf_ = take(rows_.size() * d_);
    agg_keep_.alpha = attention ? take(e) : nullptr;
    agg_keep_.gate = dual ? take(t) : nullptr;
    x_ = take(t * in_dim);
    gru_keep_ = {take(t * d_), take(t * d_), take(t * d_), take(t * d_)};
  }

  void forward(Tensor& out) override {
    nn::Scratch& s = level_scratch();
    s.reset();
    for (std::size_t i = 0; i < rows_.size(); ++i)
      std::copy_n(rows_[i].node->value.row(rows_[i].row), d_,
                  rows_buf_ + i * d_);
    level_formula(*batch_, *features_, agg_, gru_, rows_buf_, x_, out.data(), s,
                  &agg_keep_, &gru_keep_);
    batch_ = nullptr;  // the circuit graph may go before the backward
    features_ = nullptr;
  }

  void backward(const Tensor& out_grad) override {
    nn::Scratch& s = level_scratch();
    s.reset();
    const std::size_t t = static_cast<std::size_t>(targets_);
    const std::size_t e = segment_.size();
    const float* hv_prev_edges = rows_buf_ + t * d_;
    const float* hu = hv_prev_edges + e * d_;
    const int m_dim = agg_.message_dim();
    float* dm = s.zeros(t * static_cast<std::size_t>(m_dim));
    float* dhv = need_dhv_ ? s.zeros(t * d_) : nullptr;
    gru_.backward(x_, rows_buf_, targets_, gru_keep_, out_grad.data(), dm,
                  m_dim, dhv, s);
    float* dhve = need_dhve_ ? s.zeros(e * d_) : nullptr;
    float* dhu = need_dhu_ ? s.zeros(e * d_) : nullptr;
    agg_.backward(rows_buf_, hv_prev_edges, hu, segment_, targets_, agg_keep_,
                  x_, gru_.in_dim(), dm, dhv, dhve, dhu, s);
    scatter(t + e, e, dhu);
    scatter(t, e, dhve);
    scatter(0, t, dhv);
  }

 private:
  /// The gather's backward: rows [first, first + count) of rows_ take
  /// their gradient rows in ascending order.
  void scatter(std::size_t first, std::size_t count, const float* grad) {
    if (grad == nullptr) return;
    for (std::size_t i = 0; i < count; ++i) {
      const LevelRow& r = rows_[first + i];
      if (r.node->requires_grad)
        nn::kernels::acc_add(r.node->grad.row(r.row), grad + i * d_, d_);
    }
  }

  const LevelBatch* batch_;
  const Tensor* features_;
  const Aggregator& agg_;
  const nn::GruCell& gru_;
  std::vector<int> segment_;  // the batch's, for backward
  std::vector<LevelRow> rows_;
  int targets_;
  std::size_t d_;
  bool need_dhv_ = false, need_dhve_ = false, need_dhu_ = false;
  std::vector<float> saved_;  // every kept block below, in one allocation
  float* rows_buf_ = nullptr;  // the operand rows, in rows_' order
  float* x_ = nullptr;
  Aggregator::Activations agg_keep_;
  nn::GruCell::Activations gru_keep_;
};

/// Record one level as one LevelOp and repoint its targets' states at the
/// fresh output. The op's inputs are the Vars its rows come from (adjacent
/// repeats skipped; a repeat left costs only a has_grad check) and the
/// aggregator's and GRU's parameters.
void record_level(Graph& g, const LevelBatch& batch, const Aggregator& agg,
                  const nn::GruCell& gru, const std::vector<Var>& params,
                  const Tensor& features, std::vector<RowRef>& state) {
  std::vector<LevelRow> rows;
  rows.reserve(batch.targets.size() + 2 * batch.sources.size());
  std::vector<Var> inputs;
  for_each_operand(batch, [&](NodeId v) {
    const RowRef& r = state[v];
    rows.push_back({r.var.get(), r.row});
    if (inputs.empty() || inputs.back() != r.var) inputs.push_back(r.var);
  });
  inputs.insert(inputs.end(), params.begin(), params.end());
  const int num_targets = static_cast<int>(batch.targets.size());
  const Var h_new = g.custom(
      inputs, num_targets, gru.hidden_dim(),
      std::make_unique<LevelOp>(batch, agg, gru, features, std::move(rows)));
  for (int i = 0; i < num_targets; ++i)
    state[batch.targets[i]] = RowRef{h_new, i};
}

/// Fused level update (inference): copy the level's operand rows out of the
/// N x d state into scratch, run level_formula — the grad-mode LevelOp's
/// forward — and write the new target rows back. Every operand is read
/// before any row is written. Returns the number of state rows read.
int infer_level(const LevelBatch& batch, const Aggregator& agg,
                const nn::GruCell& gru, const Tensor& features, Tensor& state,
                nn::Scratch& s) {
  s.reset();
  const std::size_t d = static_cast<std::size_t>(state.cols());
  const std::size_t count = batch.targets.size() + 2 * batch.sources.size();
  float* rows = s.take(count * d);
  float* next = rows;
  for_each_operand(batch, [&](NodeId v) {
    next = std::copy_n(state.row(static_cast<int>(v)), d, next);
  });
  const float* h_new =
      level_formula(batch, features, agg, gru, rows, nullptr, nullptr, s);
  for (std::size_t i = 0; i < batch.targets.size(); ++i)
    std::copy_n(h_new + i * d, d, state.row(static_cast<int>(batch.targets[i])));
  return static_cast<int>(count);
}

/// Fused sweep: every level in order on the calling thread. Under an
/// active ExecTraceScope the sweep reports as one flush whose steps are its
/// levels (see nn::ExecStats).
void infer_sweep(const std::vector<LevelBatch>& levels, const Aggregator& agg,
                 const nn::GruCell& gru, const Tensor& features, Tensor& state,
                 nn::Scratch& s) {
  using Clock = std::chrono::steady_clock;
  nn::ExecStats* trace = nn::ExecTraceScope::active();
  const Clock::time_point start =
      trace != nullptr ? Clock::now() : Clock::time_point{};
  int rows = 0;
  for (const LevelBatch& batch : levels)
    rows += infer_level(batch, agg, gru, features, state, s);
  if (trace == nullptr) return;
  trace->slab_gather_rows += rows;
  trace->flushes += 1;
  trace->steps += static_cast<int>(levels.size());
  trace->simd_lanes = nn::kernels::lanes();
  trace->flush_ms.push_back(
      std::chrono::duration<double, std::milli>(Clock::now() - start).count());
}

}  // namespace

Var DeepSeqModel::propagate(Graph& g, const CircuitGraph& graph,
                            const Workload& w, std::uint64_t init_seed) const {
  Tensor h0_states = initial_states(graph, w, config_.hidden_dim, init_seed);

  const bool custom = config_.propagation == PropagationKind::kDeepSeqCustom;
  const auto& fwd = custom ? graph.comb_forward : graph.baseline_forward;
  const auto& rev = custom ? graph.comb_reverse : graph.baseline_reverse;

  if (!g.grad_enabled()) {
    // Fused inference: every node's state is a row of one N x d tensor,
    // updated level by level over scratch rows. No ops are recorded; each
    // level runs level_formula, as the grad-mode level ops below do, so
    // the embedding is bit-identical to theirs
    // (tests/core/test_fused_propagation.cpp).
    Tensor state = std::move(h0_states);
    nn::Scratch scratch;
    for (int t = 0; t < config_.iterations; ++t) {
      infer_sweep(fwd, agg_fwd_, gru_fwd_, graph.features, state, scratch);
      infer_sweep(rev, agg_rev_, gru_rev_, graph.features, state, scratch);
      if (custom && !graph.ff_targets.empty()) {
        // Step 4 (Fig. 2): FFs take their D predecessor's representation.
        // Two-phase copy so FF->FF chains shift correctly.
        scratch.reset();
        const std::size_t d = static_cast<std::size_t>(state.cols());
        float* next = scratch.take(graph.ff_sources.size() * d);
        for (std::size_t k = 0; k < graph.ff_sources.size(); ++k)
          std::copy_n(state.row(static_cast<int>(graph.ff_sources[k])), d,
                      next + k * d);
        for (std::size_t k = 0; k < graph.ff_targets.size(); ++k)
          std::copy_n(next + k * d, d,
                      state.row(static_cast<int>(graph.ff_targets[k])));
        if (nn::ExecStats* trace = nn::ExecTraceScope::active())
          trace->slab_gather_rows += static_cast<int>(graph.ff_sources.size());
      }
    }
    return g.constant(std::move(state));
  }

  // Grad mode: one taped LevelOp per level.
  const auto param_vars = [](const Aggregator& agg, const nn::GruCell& gru) {
    nn::NamedParams named;
    agg.collect_params(named);
    gru.collect_params(named);
    std::vector<Var> out;
    for (auto& [name, p] : named) out.push_back(std::move(p));
    return out;
  };
  const std::vector<Var> params_fwd = param_vars(agg_fwd_, gru_fwd_);
  const std::vector<Var> params_rev = param_vars(agg_rev_, gru_rev_);
  const Var h0 = g.constant(std::move(h0_states));
  std::vector<RowRef> state;
  state.reserve(static_cast<std::size_t>(graph.num_nodes));
  for (int v = 0; v < graph.num_nodes; ++v) state.push_back(RowRef{h0, v});

  for (int t = 0; t < config_.iterations; ++t) {
    for (const LevelBatch& batch : fwd)
      record_level(g, batch, agg_fwd_, gru_fwd_, params_fwd, graph.features,
                   state);
    for (const LevelBatch& batch : rev)
      record_level(g, batch, agg_rev_, gru_rev_, params_rev, graph.features,
                   state);
    if (custom) {
      // Step 4 (Fig. 2): FFs take their D predecessor's representation —
      // the clock edge. Two-phase copy so FF->FF chains shift correctly.
      std::vector<RowRef> next(graph.ff_targets.size());
      for (std::size_t k = 0; k < graph.ff_targets.size(); ++k)
        next[k] = state[graph.ff_sources[k]];
      for (std::size_t k = 0; k < graph.ff_targets.size(); ++k)
        state[graph.ff_targets[k]] = next[k];
    }
  }
  return g.gather(state);
}

Var DeepSeqModel::embed(Graph& g, const CircuitGraph& graph, const Workload& w,
                        std::uint64_t init_seed) const {
  return propagate(g, graph, w, init_seed);
}

DeepSeqModel::Output DeepSeqModel::regress(Graph& g, const Var& embeddings) const {
  return Output{mlp_tr_.apply(g, embeddings), mlp_lg_.apply(g, embeddings)};
}

DeepSeqModel::Output DeepSeqModel::forward(Graph& g, const CircuitGraph& graph,
                                           const Workload& w,
                                           std::uint64_t init_seed) const {
  return regress(g, propagate(g, graph, w, init_seed));
}

nn::NamedParams DeepSeqModel::params() const {
  nn::NamedParams out = backbone_params();
  mlp_tr_.collect_params(out);
  mlp_lg_.collect_params(out);
  return out;
}

nn::NamedParams DeepSeqModel::head_params() const {
  nn::NamedParams out;
  mlp_tr_.collect_params(out);
  mlp_lg_.collect_params(out);
  return out;
}

nn::NamedParams DeepSeqModel::backbone_params() const {
  nn::NamedParams out;
  agg_fwd_.collect_params(out);
  agg_rev_.collect_params(out);
  gru_fwd_.collect_params(out);
  gru_rev_.collect_params(out);
  return out;
}

void DeepSeqModel::save(const std::string& path) const {
  nn::save_params(path, params());
}

void DeepSeqModel::load(const std::string& path) {
  nn::load_params(path, params());
}

void DeepSeqModel::copy_params_from(const DeepSeqModel& other) {
  const nn::NamedParams mine = params();
  const nn::NamedParams theirs = other.params();
  if (mine.size() != theirs.size())
    throw Error("copy_params_from: architecture mismatch");
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if (mine[i].first != theirs[i].first ||
        !mine[i].second->value.same_shape(theirs[i].second->value))
      throw Error("copy_params_from: parameter mismatch at " + mine[i].first);
    mine[i].second->value = theirs[i].second->value;
  }
}

}  // namespace deepseq
