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

namespace {

/// Initial state matrix: PIs hold their workload logic-1 probability in
/// every dimension (and stay fixed); other nodes start from a reproducible
/// uniform-random state (paper §III-B).
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

/// Run one batched level update: gather operands, aggregate, GRU-combine,
/// and repoint the updated nodes' states at the fresh level matrix.
void run_level(Graph& g, const LevelBatch& batch, const Aggregator& agg,
               const nn::GruCell& gru, const Var& features,
               std::vector<RowRef>& state) {
  const int num_targets = static_cast<int>(batch.targets.size());
  std::vector<RowRef> target_refs, edge_target_refs, source_refs, feat_refs;
  target_refs.reserve(batch.targets.size());
  feat_refs.reserve(batch.targets.size());
  for (NodeId v : batch.targets) {
    target_refs.push_back(state[v]);
    feat_refs.push_back(RowRef{features, static_cast<int>(v)});
  }
  edge_target_refs.reserve(batch.sources.size());
  source_refs.reserve(batch.sources.size());
  for (std::size_t e = 0; e < batch.sources.size(); ++e) {
    edge_target_refs.push_back(state[batch.targets[batch.segment[e]]]);
    source_refs.push_back(state[batch.sources[e]]);
  }

  const Var hv_prev = g.gather(target_refs);
  const Var hv_prev_edges = g.gather(edge_target_refs);
  const Var hu = g.gather(source_refs);
  const Var m = agg.aggregate(g, hv_prev, hv_prev_edges, hu, batch.segment,
                              num_targets);
  const Var x = g.concat_cols({m, g.gather(feat_refs)});
  const Var h_new = gru.apply(g, x, hv_prev);
  for (int i = 0; i < num_targets; ++i)
    state[batch.targets[i]] = RowRef{h_new, i};
}

/// Fused level update (inference): copy the level's operand rows out of the
/// N x d state into scratch, run Aggregator::infer and GruCell::infer —
/// run_level's formula, kernel for kernel — and write the new target rows
/// back. Every operand is read before any row is written, as in run_level.
/// Returns the number of state rows read.
int infer_level(const LevelBatch& batch, const Aggregator& agg,
                const nn::GruCell& gru, const Tensor& features, Tensor& state,
                nn::Scratch& s) {
  s.reset();
  const std::size_t d = static_cast<std::size_t>(state.cols());
  const int num_targets = static_cast<int>(batch.targets.size());
  const int num_edges = static_cast<int>(batch.sources.size());
  const auto rows_of = [&](int count, auto&& node_of) {
    float* rows = s.take(static_cast<std::size_t>(count) * d);
    for (int i = 0; i < count; ++i)
      std::copy_n(state.row(static_cast<int>(node_of(i))), d, rows + i * d);
    return rows;
  };
  const float* hv_prev =
      rows_of(num_targets, [&](int i) { return batch.targets[i]; });
  const float* hv_prev_edges = rows_of(
      num_edges, [&](int e) { return batch.targets[batch.segment[e]]; });
  const float* hu = rows_of(num_edges, [&](int e) { return batch.sources[e]; });

  const std::size_t m_dim = static_cast<std::size_t>(agg.message_dim());
  float* m = s.take(static_cast<std::size_t>(num_targets) * m_dim);
  agg.infer(hv_prev, hv_prev_edges, hu, batch.segment, num_targets, m, s);
  // x = m || features, the recorded concat_cols.
  const std::size_t in_dim = m_dim + kFeatureDim;
  float* x = s.take(static_cast<std::size_t>(num_targets) * in_dim);
  for (int i = 0; i < num_targets; ++i) {
    std::copy_n(m + i * m_dim, m_dim, x + i * in_dim);
    std::copy_n(features.row(static_cast<int>(batch.targets[i])), kFeatureDim,
                x + i * in_dim + m_dim);
  }
  float* h_new = s.take(static_cast<std::size_t>(num_targets) * d);
  gru.infer(x, hv_prev, num_targets, h_new, s);
  for (int i = 0; i < num_targets; ++i)
    std::copy_n(h_new + i * d, d, state.row(static_cast<int>(batch.targets[i])));
  return num_targets + 2 * num_edges;
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
    // updated level by level over scratch rows. No ops are recorded; the
    // same kernels run in the same per-element order as the recorded path
    // below, so the embedding is bit-identical to it
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

  const Var features = g.constant(graph.features);
  const Var h0 = g.constant(std::move(h0_states));
  std::vector<RowRef> state(static_cast<std::size_t>(graph.num_nodes));
  for (int v = 0; v < graph.num_nodes; ++v) state[v] = RowRef{h0, v};

  for (int t = 0; t < config_.iterations; ++t) {
    for (const LevelBatch& batch : fwd)
      run_level(g, batch, agg_fwd_, gru_fwd_, features, state);
    for (const LevelBatch& batch : rev)
      run_level(g, batch, agg_rev_, gru_rev_, features, state);
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

  std::vector<RowRef> all;
  all.reserve(static_cast<std::size_t>(graph.num_nodes));
  for (int v = 0; v < graph.num_nodes; ++v) all.push_back(state[v]);
  return g.gather(all);
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
