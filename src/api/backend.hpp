#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/circuit.hpp"
#include "nn/tensor.hpp"
#include "sim/workload.hpp"

namespace deepseq::api {

/// Opaque per-circuit structure state produced by EmbeddingBackend::prepare
/// — whatever a backend derives from the netlist alone (levelized schedule,
/// ancestor sets, positional encodings, ...). The serving layer caches these
/// keyed by circuit identity + backend fingerprint, so concrete contents are
/// node-indexed against the exact circuit they were prepared from.
struct BackendState {
  virtual ~BackendState() = default;
};

/// Capability descriptor of one embedding backend. `fingerprint` is a
/// deterministic function of the backend's architecture + weights seed and
/// is the cache-key component that keeps entries of differently-configured
/// backends apart; two backends with equal fingerprints MUST produce
/// bit-identical outputs for equal inputs.
struct BackendInfo {
  std::string name;
  int hidden_dim = 0;
  std::uint64_t fingerprint = 0;
  /// Weight provenance: "seed" for architecture-default initialization, or
  /// "artifact:<hex content hash>" when the backend was built from (or
  /// hot-reloaded with) a model artifact — see BackendOptions::artifact and
  /// Session::reload_weights.
  std::string weights = "seed";
  /// Probability heads available: regress() works, so the logic-prob,
  /// transition-prob and power tasks can be served by this backend.
  bool supports_regress = false;
  /// reliability() works (model-only circuit reliability readout).
  bool supports_reliability = false;
};

/// Per-node probability heads over an embedding matrix.
struct Regression {
  nn::Tensor tr;  // N x 2 sigmoid outputs: P(0->1), P(1->0)
  nn::Tensor lg;  // N x 1 sigmoid output: P(node = 1)
};

/// Model-only reliability readout (mirrors ReliabilityModel::Estimate
/// without pulling the reliability headers into the interface).
struct ReliabilityEstimate {
  std::vector<double> node_reliability;
  double circuit_reliability = 1.0;
};

/// Abstract embedding backend: the unit of extensibility of the serving
/// surface. A backend turns a strict sequential AIG into per-node
/// embeddings in two phases — `prepare` derives the reusable structure
/// state (cached once per circuit), `embed` runs the deterministic forward
/// pass for one (workload, init_seed). Implementations must be const-safe
/// for concurrent calls: the engine invokes prepare/embed from many worker
/// threads at once.
class EmbeddingBackend {
 public:
  virtual ~EmbeddingBackend() = default;

  virtual const BackendInfo& info() const = 0;

  /// Derive this backend's structure state from a circuit. Expensive —
  /// callers (the inference engine) cache the result by circuit identity.
  virtual std::shared_ptr<const BackendState> prepare(
      const Circuit& aig) const = 0;

  /// Deterministic forward pass: N x hidden final node states. `state` must
  /// have been produced by this backend's prepare() for the same circuit.
  virtual nn::Tensor embed(const BackendState& state, const Workload& w,
                           std::uint64_t init_seed) const = 0;

  /// Run the probability heads over an embedding matrix this backend
  /// produced. Default: throws Error("... does not support regress") —
  /// check info().supports_regress.
  virtual Regression regress(const nn::Tensor& embedding) const;

  /// Model-only reliability estimate over the prepared structure (`pos` are
  /// the node ids reliability is read out at, normally the circuit's POs).
  /// Default: throws — check info().supports_reliability.
  virtual ReliabilityEstimate reliability(const BackendState& state,
                                          const Workload& w,
                                          const std::vector<NodeId>& pos,
                                          std::uint64_t init_seed) const;
};

}  // namespace deepseq::api
