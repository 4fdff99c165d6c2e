#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "api/backend.hpp"
#include "api/registry.hpp"
#include "netlist/scoap.hpp"
#include "power/power_analyzer.hpp"
#include "runtime/inference_engine.hpp"

namespace deepseq::api {

/// The downstream tasks DeepSeq embeddings feed (paper §V: logic/transition
/// probability, power, reliability; netlist testability rides on the same
/// serving surface via SCOAP).
enum class TaskKind {
  kEmbedding,
  kLogicProb,
  kTransitionProb,
  kPower,
  kReliability,
  kTestability,
};

const char* task_name(TaskKind k);

/// One typed query against a Session: which circuit, under which workload,
/// which task, served by which backend (registry name; empty = the
/// session's default backend).
struct TaskRequest {
  std::shared_ptr<const Circuit> circuit;  // strict sequential AIG
  Workload workload;
  TaskKind task = TaskKind::kEmbedding;
  std::string backend;
  std::uint64_t init_seed = 1;
};

// ---- per-task typed results ------------------------------------------------

struct EmbeddingOutput {
  std::shared_ptr<const nn::Tensor> embedding;  // N x hidden
};

struct LogicProbOutput {
  std::shared_ptr<const nn::Tensor> prob;  // N x 1: P(node = 1)
};

struct TransitionProbOutput {
  std::shared_ptr<const nn::Tensor> prob;  // N x 2: P(0->1), P(1->0)
};

struct PowerOutput {
  PowerReport report;               // via the src/power analyzer (SAIF path)
  std::vector<double> logic1;       // model-predicted per-node P(=1)
  std::vector<double> toggle_rate;  // model-predicted per-node toggles/cycle
};

struct ReliabilityOutput {
  double circuit_reliability = 1.0;        // averaged over POs
  std::vector<double> node_reliability;    // per node
};

struct TestabilityOutput {
  ScoapMeasures scoap;  // via netlist/scoap
};

using TaskOutput =
    std::variant<EmbeddingOutput, LogicProbOutput, TransitionProbOutput,
                 PowerOutput, ReliabilityOutput, TestabilityOutput>;

struct TaskResult {
  TaskKind task = TaskKind::kEmbedding;
  std::string backend;  // registry name that served the request
  TaskOutput output;
  StructuralHash structure;
  bool structure_cache_hit = false;
  bool embedding_cache_hit = false;
  /// Regression-head outputs served from the cache (same EmbeddingKey as
  /// the embedding): warm logic/transition-prob/power requests skip the
  /// two-head MLP forward entirely.
  bool regression_cache_hit = false;
  /// Always 0: a Session computes each task on its caller's thread, so a
  /// task's time is all compute. Kept on the wire and in the reply.
  double queue_ms = 0.0;
  double compute_ms = 0.0;  // embed/structure resolve + task head
  double total_ms = 0.0;    // queue_ms + compute_ms

  /// Typed access: `result.as<PowerOutput>()`. Throws
  /// std::bad_variant_access on a task/type mismatch.
  template <typename T>
  const T& as() const {
    return std::get<T>(output);
  }
};

struct SessionConfig {
  /// Default backend (registry name) for requests that leave
  /// TaskRequest::backend empty. Resolved at construction — unknown names
  /// throw listing the registered ones.
  std::string backend = "deepseq";
  /// Construction presets handed to backend factories.
  BackendOptions backends;
  /// Engine knobs (cache capacities).
  runtime::EngineConfig engine;
  /// SAIF duration (cycles) power predictions are reported over.
  long long power_duration = 10000;
  ScoapOptions scoap;
  /// Dump a Chrome trace-event / Perfetto-compatible JSON of every task's
  /// span chain (resolve -> embed -> head -> task) to this path
  /// on Session destruction. Empty resolves the DEEPSEQ_TRACE environment
  /// variable (strict: an unwritable path fails Session construction,
  /// naming the variable and path); empty both ways disables tracing —
  /// the request path then pays one relaxed atomic load per stage.
  std::string trace_path;
};

/// The public serving surface: one Session owns the backend instances (all
/// created through the registry), the inference engine and its caches, and
/// serves every TaskKind through run_sync on the caller's thread (the serve
/// tier's shard workers are those callers). All task kinds against the same
/// circuit share one cached structure resolve, and embedding-consuming
/// tasks (logic/transition probability, power) share one cached forward
/// pass. The task heads are cached too: the regression heads and the power
/// report under the request's EmbeddingKey, the SCOAP measures under the
/// circuit's identity. A warm power request still looks its regression
/// heads up first (they give the reply's per-node activity), so
/// regression_cache_hit keeps its meaning; no reply flag reports the power
/// or SCOAP layer. All public methods are thread-safe.
class Session {
 public:
  explicit Session(const SessionConfig& config = {},
                   BackendRegistry& registry = BackendRegistry::global());

  /// When tracing was enabled (trace_path / DEEPSEQ_TRACE), writes the
  /// Chrome-trace dump and restores the prior global tracing state (I/O
  /// failures are reported on stderr — a destructor never throws). No
  /// run_sync call may still be running.
  ~Session();

  const SessionConfig& config() const { return config_; }

  /// Compute one task on the calling thread: the circuit's identity (one
  /// structural hash), structure resolve, embed and task head. Unknown
  /// backend names, unsupported task/backend combinations and compute
  /// errors throw.
  TaskResult run_sync(const TaskRequest& request);

  /// Trusted entry point: run_sync with the circuit's identity already
  /// computed, so the session hashes nothing. The caller vouches that
  /// `identity` is circuit_identity(*request.circuit); a wrong one serves
  /// another circuit's cached results (the engine checks only its counts).
  /// serve::ShardRouter, which routes the request by the identity that
  /// serve::Server's circuit memo computed once per circuit section, is its
  /// only caller; nothing on the wire carries one.
  TaskResult run_sync(const TaskRequest& request,
                      const CircuitIdentity& identity);

  /// Zero-downtime weight push: build a replacement backend instance from
  /// the artifact through the registry (same name, the session's options
  /// with the artifact swapped in), then atomically swap the serving
  /// instance. run_sync calls already running hold their own handle and
  /// finish on the old weights — their results and cache entries stay keyed
  /// by the old fingerprint, nothing is dropped — and every call that starts
  /// after the swap is served by the new weights under the artifact-derived
  /// fingerprint (returned). Empty name = the session default backend; a
  /// kind/architecture mismatch — or a push that leaves the fingerprint
  /// unchanged (weights already live, or a custom factory that ignores
  /// BackendOptions::artifact) — throws before anything is swapped.
  std::uint64_t reload_weights(
      std::shared_ptr<const artifact::Artifact> artifact,
      const std::string& name = "");

  /// The session's instance of a backend (empty name = session default).
  /// Lazily created through the registry on first use. The reference names
  /// the instance serving at call time and is INVALIDATED by a
  /// reload_weights of the same name (the swap drops the session's
  /// ownership of the replaced instance); callers that may outlive a
  /// reload must hold backend_handle() instead.
  const EmbeddingBackend& backend(const std::string& name = "");

  /// Owning handle on the instance currently serving `name` (empty name =
  /// session default) — survives reload_weights swaps.
  std::shared_ptr<const EmbeddingBackend> backend_handle(
      const std::string& name = "");

  /// Registry names available to this session, sorted.
  std::vector<std::string> backend_names() const { return registry_.names(); }

  runtime::CircuitCache::Stats cache_stats() const {
    return engine_.cache_stats();
  }

 private:
  runtime::EmbeddingRequest to_engine_request(const TaskRequest& request,
                                              const CircuitIdentity& identity,
                                              const EmbeddingBackend& be) const;
  TaskResult finish(const TaskRequest& request, const EmbeddingBackend& be,
                    runtime::EmbeddingResult&& er);

  SessionConfig config_;
  BackendRegistry& registry_;
  /// Resolved trace dump path (config or DEEPSEQ_TRACE); empty = tracing
  /// untouched by this session.
  std::string trace_path_;
  bool tracing_prev_ = false;
  /// Serializes reload_weights pushes (held across build/guard/swap; always
  /// acquired before backends_mu_).
  std::mutex reload_mu_;
  mutable std::mutex backends_mu_;
  // The instances currently serving each name. Shared ownership is what
  // makes reload_weights safe: each run_sync call holds its own handle, so
  // a replaced instance stays alive until its last task finishes.
  std::map<std::string, std::shared_ptr<EmbeddingBackend>> backends_;
  runtime::InferenceEngine engine_;
};

}  // namespace deepseq::api
