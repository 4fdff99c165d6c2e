#include "runtime/inference_engine.hpp"

#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "nn/executor.hpp"
#include "obs/metrics.hpp"

namespace deepseq::runtime {
namespace {

/// nn work folded out of nn::ExecStats per traced embed (fused DeepSeq
/// passes report levels as steps; see ExecStats). Looked up once;
/// recording is lock-free.
struct EngineMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& nn_steps = reg.counter("nn.steps");
  // Node-state rows the fused inference pass read.
  obs::Counter& nn_slab_gather_rows = reg.counter("nn.slab_gather_rows");
  static EngineMetrics& get() {
    static EngineMetrics m;
    return m;
  }
};

obs::TraceEvent make_span(const char* name, std::uint64_t t0, std::uint64_t t1,
                          const obs::TaskContext& ctx, std::uint64_t structure) {
  obs::TraceEvent e;
  e.name = name;
  e.ts_ns = t0;
  e.dur_ns = t1 > t0 ? t1 - t0 : 0;
  e.ctx = ctx;
  e.structure = structure;
  return e;
}

}  // namespace

InferenceEngine::InferenceEngine(const EngineConfig& config)
    : cache_(config.cache) {}

std::shared_ptr<const api::BackendState> InferenceEngine::resolve_structure(
    const api::EmbeddingBackend& backend, const Circuit& circuit,
    const StructureKey& key, bool* hit) {
  bool miss = false;
  auto structure = cache_.get_or_build_structure(key, [&] {
    miss = true;
    return backend.prepare(circuit);
  });
  *hit = !miss;
  return structure;
}

EmbeddingResult InferenceEngine::run_sync(const EmbeddingRequest& request) {
  if (request.circuit == nullptr)
    throw Error("InferenceEngine: request without a circuit");
  if (request.backend == nullptr)
    throw Error("InferenceEngine: request without a backend");
  const Circuit& circuit = *request.circuit;
  const StructuralHash& structural = request.identity.structure;
  const std::uint64_t exact = request.identity.exact;
  // O(1) guard against a default or stale identity; the digests themselves
  // are the caller's word.
  if (structural.num_nodes != circuit.num_nodes() ||
      structural.num_pis != circuit.pis().size() ||
      structural.num_pos != circuit.pos().size() ||
      structural.num_ffs != circuit.ffs().size())
    throw Error("InferenceEngine: request identity " + structural.to_string() +
                " does not describe its circuit");
  const api::EmbeddingBackend& backend = *request.backend;
  const std::uint64_t fingerprint = backend.info().fingerprint;

  const auto start = std::chrono::steady_clock::now();
  EmbeddingResult result;
  result.backend = request.backend;
  result.trace = request.trace;
  result.structure = structural;
  const StructureKey skey{structural, exact, fingerprint};

  // Tracing is per-task: only requests carrying a Session-assigned context
  // record spans (and only while the global switch is on — one relaxed
  // load on the disabled path, no extra clock reads).
  const bool tracing = request.trace.kind != nullptr && obs::tracing_enabled();
  const std::uint64_t digest = structural.digest;

  EmbeddingKey ekey;
  ekey.structure = structural;
  ekey.exact = exact;
  ekey.backend_fingerprint = fingerprint;
  ekey.workload_fingerprint = workload_fingerprint(request.workload);
  ekey.init_seed = request.init_seed;
  result.key = ekey;

  // Timed, traced structure resolve ("resolve" span; hit/miss as an arg).
  const auto traced_resolve = [&] {
    const std::uint64_t t0 = tracing ? obs::trace_now_ns() : 0;
    auto structure = resolve_structure(backend, circuit, skey,
                                       &result.structure_cache_hit);
    if (tracing) {
      obs::TraceEvent e = make_span("resolve", t0, obs::trace_now_ns(),
                                    request.trace, digest);
      e.arg_name[0] = "cache_hit";
      e.arg[0] = result.structure_cache_hit ? 1 : 0;
      obs::TraceSink::global().record(e);
    }
    return structure;
  };

  std::shared_ptr<const nn::Tensor> cached;
  if (request.want_embedding) cached = cache_.get_embedding(ekey);
  if (cached != nullptr) {
    result.embedding = std::move(cached);
    result.embedding_cache_hit = true;
    if (request.want_state) result.state = traced_resolve();
  } else if (request.want_embedding || request.want_state) {
    // Requests wanting neither the forward pass nor the state (e.g. the
    // testability task, which reads the circuit alone) skip prepare.
    const auto structure = traced_resolve();
    if (request.want_state) result.state = structure;

    if (request.want_embedding) {
      // The "embed" span folds the nn layer's work (nn::ExecStats) into the
      // task trace: steps, flushes, state rows read, simd lanes.
      // The per-flush stats collection itself is gated on tracing so the
      // disabled path stays free of extra clock reads.
      const std::uint64_t t0 = tracing ? obs::trace_now_ns() : 0;
      std::shared_ptr<const nn::Tensor> embedding;
      nn::ExecStats exec_stats;
      if (tracing) {
        nn::ExecTraceScope exec_trace(exec_stats);
        embedding = std::make_shared<const nn::Tensor>(
            backend.embed(*structure, request.workload, request.init_seed));
      } else {
        embedding = std::make_shared<const nn::Tensor>(
            backend.embed(*structure, request.workload, request.init_seed));
      }
      if (tracing) {
        auto& metrics = EngineMetrics::get();
        metrics.nn_steps.inc(static_cast<std::uint64_t>(exec_stats.steps));
        metrics.nn_slab_gather_rows.inc(
            static_cast<std::uint64_t>(exec_stats.slab_gather_rows));
        obs::TraceEvent e =
            make_span("embed", t0, obs::trace_now_ns(), request.trace, digest);
        e.arg_name[0] = "steps";
        e.arg[0] = exec_stats.steps;
        e.arg_name[1] = "flushes";
        e.arg[1] = exec_stats.flushes;
        e.arg_name[2] = "slab_gather_rows";
        e.arg[2] = exec_stats.slab_gather_rows;
        e.arg_name[3] = "simd_lanes";
        e.arg[3] = exec_stats.simd_lanes;
        obs::TraceSink::global().record(e);
      }
      cache_.put_embedding(ekey, embedding);
      result.embedding = std::move(embedding);
    }
  }

  result.compute_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return result;
}

std::shared_ptr<const api::Regression> InferenceEngine::regress_cached(
    const EmbeddingKey& key, const api::EmbeddingBackend& backend,
    const nn::Tensor& embedding, bool* cache_hit) {
  bool miss = false;
  auto reg = cache_.get_or_build_regression(key, [&] {
    miss = true;
    return std::make_shared<const api::Regression>(backend.regress(embedding));
  });
  if (cache_hit != nullptr) *cache_hit = !miss;
  return reg;
}

}  // namespace deepseq::runtime
