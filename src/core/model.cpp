#include "core/model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "netlist/structural_hash.hpp"
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
/// and repoint the updated nodes' states at the fresh level matrix. The
/// whole level is recorded under one BatchScope, so the planner sees its op
/// DAG at once: independent ops (the three gathers, the GRU gate matmuls)
/// land in shared waves and large kernels split into row chunks across the
/// executor's threads.
void run_level(Graph& g, const LevelBatch& batch, const Aggregator& agg,
               const nn::GruCell& gru, const Var& features,
               std::vector<RowRef>& state) {
  nn::BatchScope level_scope(g);
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

/// Slab-mode level update (inference): node states are rows of one
/// plan-owned slab, addressed through the current version marker. The three
/// gathers read slab rows directly — the planner rewrites them to the base
/// tensor, so they fuse into their consumer chains instead of escaping into
/// per-level matrices — and the updated rows scatter back in place,
/// consuming the version. Returns the next version.
Var run_level_slab(Graph& g, const LevelBatch& batch, const Aggregator& agg,
                   const nn::GruCell& gru, const Var& features,
                   const Var& version) {
  nn::BatchScope level_scope(g);
  const int num_targets = static_cast<int>(batch.targets.size());
  std::vector<RowRef> target_refs, edge_target_refs, source_refs, feat_refs;
  target_refs.reserve(batch.targets.size());
  feat_refs.reserve(batch.targets.size());
  for (NodeId v : batch.targets) {
    target_refs.push_back(RowRef{version, static_cast<int>(v)});
    feat_refs.push_back(RowRef{features, static_cast<int>(v)});
  }
  edge_target_refs.reserve(batch.sources.size());
  source_refs.reserve(batch.sources.size());
  for (std::size_t e = 0; e < batch.sources.size(); ++e) {
    edge_target_refs.push_back(RowRef{
        version, static_cast<int>(batch.targets[batch.segment[e]])});
    source_refs.push_back(RowRef{version, static_cast<int>(batch.sources[e])});
  }

  const Var hv_prev = g.gather(target_refs);
  const Var hv_prev_edges = g.gather(edge_target_refs);
  const Var hu = g.gather(source_refs);
  const Var m = agg.aggregate(g, hv_prev, hv_prev_edges, hu, batch.segment,
                              num_targets);
  const Var x = g.concat_cols({m, g.gather(feat_refs)});
  const Var h_new = gru.apply(g, x, hv_prev);
  std::vector<int> targets;
  targets.reserve(batch.targets.size());
  for (NodeId v : batch.targets) targets.push_back(static_cast<int>(v));
  return g.scatter_rows(version, h_new, targets);
}

}  // namespace

namespace {

/// Levels recorded per planner flush. Grouping levels amortizes the
/// executor's helper-enlisting cost and lets the chain planner fuse within
/// and across levels of one group (independent chains of different levels
/// schedule concurrently as coarse tasks), while bounding how many
/// unexecuted intermediates a no-grad pass holds at once. The planner sees
/// the cross-level dependencies, so grouping never reorders computation.
/// Retuned for chain granularity: fusion cut barriers per level by ~an
/// order of magnitude, so doubling the group (32 -> 64) halves the
/// remaining per-flush dispatch overhead on deep designs at a still-modest
/// pending-intermediate footprint.
constexpr int kLevelsPerFlush = 64;

/// Run one direction sweep (all levels) in level groups.
void run_sweep(Graph& g, const std::vector<LevelBatch>& levels,
               const Aggregator& agg, const nn::GruCell& gru,
               const Var& features, std::vector<RowRef>& state) {
  std::size_t i = 0;
  while (i < levels.size()) {
    nn::BatchScope group(g);
    const std::size_t end =
        std::min(levels.size(), i + static_cast<std::size_t>(kLevelsPerFlush));
    for (; i < end; ++i) run_level(g, levels[i], agg, gru, features, state);
  }
}

/// Slab-mode sweep: threads the version marker through the levels of each
/// flush group. Same grouping, same cross-level dependencies — the version
/// chain just replaces the per-level state matrices.
Var run_sweep_slab(Graph& g, const std::vector<LevelBatch>& levels,
                   const Aggregator& agg, const nn::GruCell& gru,
                   const Var& features, Var version) {
  std::size_t i = 0;
  while (i < levels.size()) {
    nn::BatchScope group(g);
    const std::size_t end =
        std::min(levels.size(), i + static_cast<std::size_t>(kLevelsPerFlush));
    for (; i < end; ++i)
      version = run_level_slab(g, levels[i], agg, gru, features, version);
  }
  return version;
}

}  // namespace

Var DeepSeqModel::propagate(Graph& g, const CircuitGraph& graph,
                            const Workload& w, std::uint64_t init_seed) const {
  const Var features = g.constant(graph.features);
  Tensor h0_states = initial_states(graph, w, config_.hidden_dim, init_seed);

  const bool custom = config_.propagation == PropagationKind::kDeepSeqCustom;
  const auto& fwd = custom ? graph.comb_forward : graph.baseline_forward;
  const auto& rev = custom ? graph.comb_reverse : graph.baseline_reverse;

  if (!g.grad_enabled()) {
    // Slab path (inference): every node's state is a row of one slab
    // tensor, updated in place through the consume-exactly-once version
    // chain. Gathers read the slab directly (no per-level state matrices to
    // escape into), so flush groups fuse into long chains and the final
    // readout is a single N-row gather. Bit-identical to the matrix path:
    // the same kernels run in the same order over the same rows.
    Var version = g.slab(std::move(h0_states));
    for (int t = 0; t < config_.iterations; ++t) {
      version = run_sweep_slab(g, fwd, agg_fwd_, gru_fwd_, features, version);
      version = run_sweep_slab(g, rev, agg_rev_, gru_rev_, features, version);
      if (custom && !graph.ff_targets.empty()) {
        // Step 4 (Fig. 2): FFs take their D predecessor's representation.
        // The gather executes before the scatter overwrites, so FF->FF
        // chains shift correctly (same two-phase rule as the matrix path).
        std::vector<RowRef> src;
        src.reserve(graph.ff_sources.size());
        for (NodeId u : graph.ff_sources)
          src.push_back(RowRef{version, static_cast<int>(u)});
        const Var vals = g.gather(src);
        std::vector<int> tgts;
        tgts.reserve(graph.ff_targets.size());
        for (NodeId v : graph.ff_targets) tgts.push_back(static_cast<int>(v));
        version = g.scatter_rows(version, vals, tgts);
      }
    }
    std::vector<RowRef> all;
    all.reserve(static_cast<std::size_t>(graph.num_nodes));
    for (int v = 0; v < graph.num_nodes; ++v)
      all.push_back(RowRef{version, v});
    return g.gather(all);
  }

  const Var h0 = g.constant(std::move(h0_states));
  std::vector<RowRef> state(static_cast<std::size_t>(graph.num_nodes));
  for (int v = 0; v < graph.num_nodes; ++v) state[v] = RowRef{h0, v};

  for (int t = 0; t < config_.iterations; ++t) {
    run_sweep(g, fwd, agg_fwd_, gru_fwd_, features, state);
    run_sweep(g, rev, agg_rev_, gru_rev_, features, state);
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
