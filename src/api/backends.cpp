#include "api/backends.hpp"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "artifact/model_io.hpp"
#include "common/error.hpp"
#include "netlist/structural_hash.hpp"
#include "nn/graph.hpp"

namespace deepseq::api {
namespace {

DeepSeqModel deepseq_model_from_artifact(const artifact::Artifact& a) {
  artifact::require_kind(a, artifact::kKindDeepSeq);
  DeepSeqModel model(a.manifest.model);
  artifact::apply(a, model);
  return model;
}

PaceEncoder pace_encoder_from_artifact(const artifact::Artifact& a) {
  artifact::require_kind(a, artifact::kKindPace);
  PaceEncoder encoder(a.manifest.pace);
  artifact::apply(a, encoder);
  return encoder;
}

}  // namespace

Regression EmbeddingBackend::regress(const nn::Tensor&) const {
  throw Error("backend '" + info().name + "' does not support regress heads");
}

ReliabilityEstimate EmbeddingBackend::reliability(
    const BackendState&, const Workload&, const std::vector<NodeId>&,
    std::uint64_t) const {
  throw Error("backend '" + info().name +
              "' does not support the reliability task");
}

std::uint64_t deepseq_fingerprint(const ModelConfig& m) {
  return mix_config(0xD5ULL, m);
}

std::uint64_t pace_fingerprint(const PaceConfig& p) {
  return mix_config(0xFACEULL, p);
}

std::uint64_t artifact_fingerprint(std::uint64_t content_hash) {
  // A distinct domain tag keeps artifact-built identities disjoint from the
  // seed-built config fingerprints above.
  return hash_mix(0xA2717ULL, content_hash);
}

std::string artifact_weights_label(std::uint64_t content_hash) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "artifact:%016" PRIx64, content_hash);
  return buf;
}

// ---- DeepSeqBackend --------------------------------------------------------

DeepSeqBackend::DeepSeqBackend(const ModelConfig& config)
    : model_(config), reliability_model_(model_) {
  info_.name = "deepseq";
  info_.hidden_dim = config.hidden_dim;
  info_.fingerprint = deepseq_fingerprint(config);
  info_.supports_regress = true;
  info_.supports_reliability = true;
}

DeepSeqBackend::DeepSeqBackend(const artifact::Artifact& a)
    : model_(deepseq_model_from_artifact(a)), reliability_model_(model_) {
  // reliability_model_ forked the artifact backbone above; when the
  // artifact bundles a tuned error head, load it too (otherwise the head
  // keeps its deterministic seed initialization, as in the config ctor).
  if (a.has_section(artifact::kSectionReliability))
    artifact::apply(a, reliability_model_);
  const std::uint64_t content_hash = a.content_hash();
  info_.name = "deepseq";
  info_.hidden_dim = model_.config().hidden_dim;
  info_.fingerprint = artifact_fingerprint(content_hash);
  info_.weights = artifact_weights_label(content_hash);
  info_.supports_regress = true;
  info_.supports_reliability = true;
}

std::shared_ptr<const BackendState> DeepSeqBackend::prepare(
    const Circuit& aig) const {
  auto state = std::make_shared<DeepSeqState>();
  state->graph = build_circuit_graph(aig);
  state->pos.assign(aig.pos().begin(), aig.pos().end());
  return state;
}

nn::Tensor DeepSeqBackend::embed(const BackendState& state, const Workload& w,
                                 std::uint64_t init_seed) const {
  const auto& s = static_cast<const DeepSeqState&>(state);
  nn::Graph g(/*grad_enabled=*/false);
  return std::move(model_.embed(g, s.graph, w, init_seed)->value);
}

Regression DeepSeqBackend::regress(const nn::Tensor& embedding) const {
  nn::Graph g(/*grad_enabled=*/false);
  const auto out = model_.regress(g, g.constant(embedding));
  Regression r;
  r.tr = std::move(out.tr->value);
  r.lg = std::move(out.lg->value);
  return r;
}

ReliabilityEstimate DeepSeqBackend::reliability(
    const BackendState& state, const Workload& w,
    const std::vector<NodeId>& pos, std::uint64_t init_seed) const {
  const auto& s = static_cast<const DeepSeqState&>(state);
  auto est = reliability_model_.estimate(s.graph, w,
                                         pos.empty() ? s.pos : pos, init_seed);
  ReliabilityEstimate out;
  out.node_reliability = std::move(est.node_reliability);
  out.circuit_reliability = est.circuit_reliability;
  return out;
}

// ---- PaceBackend -----------------------------------------------------------

PaceBackend::PaceBackend(const PaceConfig& config) : encoder_(config) {
  info_.name = "pace";
  info_.hidden_dim = config.hidden_dim;
  info_.fingerprint = pace_fingerprint(config);
}

PaceBackend::PaceBackend(const artifact::Artifact& a)
    : encoder_(pace_encoder_from_artifact(a)) {
  const std::uint64_t content_hash = a.content_hash();
  info_.name = "pace";
  info_.hidden_dim = encoder_.config().hidden_dim;
  info_.fingerprint = artifact_fingerprint(content_hash);
  info_.weights = artifact_weights_label(content_hash);
}

std::shared_ptr<const BackendState> PaceBackend::prepare(
    const Circuit& aig) const {
  auto state = std::make_shared<PaceState>();
  state->graph = build_pace_graph(aig, encoder_.config());
  return state;
}

nn::Tensor PaceBackend::embed(const BackendState& state, const Workload& w,
                              std::uint64_t init_seed) const {
  const auto& s = static_cast<const PaceState&>(state);
  nn::Graph g(/*grad_enabled=*/false);
  return std::move(encoder_.embed(g, s.graph, w, init_seed)->value);
}

}  // namespace deepseq::api
