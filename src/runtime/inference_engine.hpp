#pragma once

#include <cstdint>
#include <memory>

#include "api/backend.hpp"
#include "obs/trace.hpp"
#include "runtime/circuit_cache.hpp"

namespace deepseq::runtime {

/// One embedding query: a strict sequential AIG and its identity, the
/// workload defining its PI behaviour, the backend to encode with
/// (non-owning — the caller keeps the instance alive until run_sync
/// returns; api::Session holds an owning handle for the whole call, which
/// is what lets reload_weights swap backends without touching in-flight
/// work), and the init seed that makes the forward pass reproducible (paper
/// convention: non-PI states are seeded randomly per sample).
struct EmbeddingRequest {
  std::shared_ptr<const Circuit> circuit;
  /// circuit_identity(*circuit), computed by the caller: the engine keys its
  /// caches on it and never hashes. A wrong identity serves another
  /// circuit's cached results; run_sync only checks its node and interface
  /// counts against the circuit.
  CircuitIdentity identity;
  Workload workload;
  const api::EmbeddingBackend* backend = nullptr;
  std::uint64_t init_seed = 1;
  /// Compute the N x hidden forward pass (disable for tasks that only need
  /// the prepared structure, e.g. reliability / testability readouts).
  bool want_embedding = true;
  /// Resolve + return the backend structure state even when the embedding
  /// is served from cache (tasks that read the structure set this).
  bool want_state = false;
  /// Observability identity (task id / kind / backend fingerprint) the
  /// request's spans are attributed to. api::Session fills it in run_sync;
  /// a default (null-kind) context marks an untraced engine-level request.
  obs::TaskContext trace;
};

/// The fulfilled side of a request. `embedding` is the N x hidden final
/// node-state matrix h_v^T — bit-identical to what a direct call to the
/// backend's embed() produces for the same inputs. `state` is the backend's
/// prepared structure when the request asked for it (want_state, or any
/// computed forward pass).
struct EmbeddingResult {
  std::shared_ptr<const nn::Tensor> embedding;
  std::shared_ptr<const api::BackendState> state;
  StructuralHash structure;
  /// The full embedding-layer cache key of this request: task heads reuse it
  /// to cache their own derived outputs (InferenceEngine::regress_cached).
  EmbeddingKey key;
  const api::EmbeddingBackend* backend = nullptr;
  bool structure_cache_hit = false;
  bool embedding_cache_hit = false;
  /// Cache lookups + structure resolve + forward.
  double compute_ms = 0.0;
  /// The request's observability identity, passed through so task heads
  /// (api::Session::finish) record their spans under the same task id.
  obs::TaskContext trace;
};

struct EngineConfig {
  int threads = 4;     // read by nothing; set only by bench/e2e/e2e_ledger.cpp
  int nn_threads = 0;  // read by nothing; set only by bench/e2e/e2e_ledger.cpp
  CircuitCacheConfig cache;
};

/// Synchronous cache-and-compute layer over pluggable
/// api::EmbeddingBackend implementations. The engine owns no models: every
/// request names the backend that serves it, and cache entries are keyed by
/// the backend's deterministic fingerprint — the public serving surface is
/// api::Session, whose callers (the serve tier's shard workers) supply the
/// request-level parallelism. The engine hashes nothing: every request
/// carries its circuit's identity (api::Session computes it for direct
/// callers; serve::ShardRouter hands in the one it routed by).
///
/// run_sync() and regress_cached() compute on the calling thread. All
/// public methods are thread-safe.
class InferenceEngine {
 public:
  explicit InferenceEngine(const EngineConfig& config);

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Compute one request on the calling thread through the cache. Throws on
  /// a missing circuit or backend, on an identity whose counts do not match
  /// the circuit, and on compute errors (e.g. a workload/PI size mismatch).
  EmbeddingResult run_sync(const EmbeddingRequest& request);

  /// Regression-head outputs for an embedding, cached beside the embedding
  /// under the same EmbeddingKey: warm multi-task probability/power traffic
  /// skips the two-head MLP forward.
  std::shared_ptr<const api::Regression> regress_cached(
      const EmbeddingKey& key, const api::EmbeddingBackend& backend,
      const nn::Tensor& embedding, bool* cache_hit = nullptr);

  CircuitCache::Stats cache_stats() const { return cache_.stats(); }
  /// The engine's cache, for task heads that cache their own outputs beside
  /// the embedding (api::Session's power and SCOAP layers).
  CircuitCache& cache() { return cache_; }

 private:
  std::shared_ptr<const api::BackendState> resolve_structure(
      const api::EmbeddingBackend& backend, const Circuit& circuit,
      const StructureKey& key, bool* hit);

  CircuitCache cache_;
};

}  // namespace deepseq::runtime
