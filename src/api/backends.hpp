#pragma once

#include <memory>
#include <vector>

#include "api/backend.hpp"
#include "artifact/artifact.hpp"
#include "core/circuit_graph.hpp"
#include "core/model.hpp"
#include "core/pace.hpp"
#include "reliability/reliability_model.hpp"

namespace deepseq::api {

/// Structure state of the DeepSeq backend: the paper's levelized
/// propagation schedule (Fig. 2) plus the PO list for task readouts.
struct DeepSeqState final : BackendState {
  CircuitGraph graph;
  std::vector<NodeId> pos;
};

/// Adapter over the paper's customized sequential propagation model.
/// Registered as "deepseq". Supports the full task surface: regress heads
/// (logic/transition probability, power) and the reliability readout (a
/// ReliabilityModel forked deterministically from the same weights).
class DeepSeqBackend final : public EmbeddingBackend {
 public:
  explicit DeepSeqBackend(const ModelConfig& config);
  /// Build from tuned weights: the architecture comes from the artifact's
  /// manifest snapshot, backbone + regression (and the reliability error
  /// head, when the artifact bundles one) from its sections, and the
  /// fingerprint from the artifact content hash — so caches can never serve
  /// one weight-set's embeddings or regressions for another. Fail-fast
  /// Error on a non-"deepseq" artifact kind.
  explicit DeepSeqBackend(const artifact::Artifact& a);

  const BackendInfo& info() const override { return info_; }
  std::shared_ptr<const BackendState> prepare(const Circuit& aig) const override;
  nn::Tensor embed(const BackendState& state, const Workload& w,
                   std::uint64_t init_seed) const override;
  Regression regress(const nn::Tensor& embedding) const override;
  ReliabilityEstimate reliability(const BackendState& state, const Workload& w,
                                  const std::vector<NodeId>& pos,
                                  std::uint64_t init_seed) const override;

  const DeepSeqModel& model() const { return model_; }

 private:
  BackendInfo info_;
  DeepSeqModel model_;
  ReliabilityModel reliability_model_;
};

/// Structure state of the PACE backend: precomputed attention sets.
struct PaceState final : BackendState {
  PaceGraph graph;
};

/// Adapter over the §VI parallel structure encoder. Registered as "pace".
/// Embedding-only: its probability heads are training-internal, so regress
/// and reliability report unsupported.
class PaceBackend final : public EmbeddingBackend {
 public:
  explicit PaceBackend(const PaceConfig& config);
  /// Build from a kind="pace" artifact (see DeepSeqBackend's artifact ctor).
  explicit PaceBackend(const artifact::Artifact& a);

  const BackendInfo& info() const override { return info_; }
  std::shared_ptr<const BackendState> prepare(const Circuit& aig) const override;
  nn::Tensor embed(const BackendState& state, const Workload& w,
                   std::uint64_t init_seed) const override;

  const PaceEncoder& encoder() const { return encoder_; }

 private:
  BackendInfo info_;
  PaceEncoder encoder_;
};

/// Deterministic fingerprints of the two built-in configurations (shared by
/// the adapters and anything that needs cache-key parity with them).
std::uint64_t deepseq_fingerprint(const ModelConfig& m);
std::uint64_t pace_fingerprint(const PaceConfig& p);

/// Fingerprint of an artifact-built backend, derived from the artifact
/// content hash (which already covers kind, config and every weight bit).
std::uint64_t artifact_fingerprint(std::uint64_t content_hash);

/// BackendInfo::weights label of an artifact-built backend
/// ("artifact:<16-hex content hash>").
std::string artifact_weights_label(std::uint64_t content_hash);

}  // namespace deepseq::api
