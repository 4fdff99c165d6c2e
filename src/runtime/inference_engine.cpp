#include "runtime/inference_engine.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/error.hpp"

namespace deepseq::runtime {
namespace {

double ms_since(std::chrono::steady_clock::time_point t0,
                std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Process-wide scheduler metrics (looked up once; recording is lock-free).
/// The queue-depth gauge tracks the pending window right now; the
/// same-named histogram records the depth observed at every enqueue, so a
/// snapshot delta yields the depth *distribution* a load level produced.
struct EngineMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Gauge& queue_depth = reg.gauge("engine.queue_depth");
  obs::Histogram& queue_depth_hist = reg.histogram("engine.queue_depth");
  obs::Counter& batches = reg.counter("engine.batches");
  obs::Histogram& batch_size = reg.histogram("engine.batch_size");
  // nn work folded out of nn::ExecStats per traced embed (fused DeepSeq
  // passes report levels as steps; see ExecStats).
  obs::Counter& nn_chains = reg.counter("nn.chains");
  obs::Counter& nn_steps = reg.counter("nn.steps");
  // Dependency-counted scheduling: global syncs paid and chain tasks
  // released by finishing producers.
  obs::Counter& nn_global_syncs = reg.counter("nn.global_syncs");
  obs::Counter& nn_released_chains = reg.counter("nn.released_chains");
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
    : config_(config),
      cache_(config.cache),
      pool_(config.threads),
      nn_exec_(&pool_,
               config.nn_threads > 0
                   ? config.nn_threads
                   : nn::nn_threads_from_env(pool_.num_threads())) {
  config_.max_batch = std::max(1, config_.max_batch);
  flusher_ = std::thread([this] { flusher_loop(); });
}

InferenceEngine::~InferenceEngine() {
  drain();
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    stop_ = true;
  }
  pending_cv_.notify_all();
  flusher_.join();
}

void InferenceEngine::enqueue(std::unique_ptr<Pending> pending) {
  // Fail fast on the calling thread: a null circuit would otherwise crash
  // a worker inside the batch's hash computation, before any future could
  // carry the error.
  if (pending->request.circuit == nullptr)
    throw Error("InferenceEngine: request without a circuit");
  pending->enqueued = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(pending_mu_);
  pending_.push_back(std::move(pending));
  auto& metrics = EngineMetrics::get();
  metrics.queue_depth.set(static_cast<std::int64_t>(pending_.size()));
  metrics.queue_depth_hist.record(pending_.size());
  if (static_cast<int>(pending_.size()) >= config_.max_batch) {
    std::vector<std::unique_ptr<Pending>> batch;
    batch.swap(pending_);
    metrics.queue_depth.set(0);
    dispatch_batch(std::move(batch));
  }
}

void InferenceEngine::flush() {
  std::lock_guard<std::mutex> lock(pending_mu_);
  std::vector<std::unique_ptr<Pending>> batch;
  batch.swap(pending_);
  EngineMetrics::get().queue_depth.set(0);
  if (!batch.empty()) dispatch_batch(std::move(batch));
}

void InferenceEngine::drain() {
  flush();
  pool_.wait_idle();
}

void InferenceEngine::flusher_loop() {
  const auto interval = std::chrono::duration<double, std::milli>(
      std::max(0.1, config_.flush_interval_ms));
  std::unique_lock<std::mutex> lock(pending_mu_);
  while (!stop_) {
    pending_cv_.wait_for(lock, interval);
    if (pending_.empty()) continue;
    const auto now = std::chrono::steady_clock::now();
    if (now - pending_.front()->enqueued < interval) continue;
    std::vector<std::unique_ptr<Pending>> batch;
    batch.swap(pending_);
    EngineMetrics::get().queue_depth.set(0);
    dispatch_batch(std::move(batch));
  }
}

// Caller must hold pending_mu_: handing the batch to the pool before the
// lock is released is what lets drain() (= flush() + wait_idle()) observe
// every submitted request — a batch can never sit swapped-out but not yet
// in the pool queue while pending_ looks empty.
void InferenceEngine::dispatch_batch(
    std::vector<std::unique_ptr<Pending>> batch) {
  {
    auto& metrics = EngineMetrics::get();
    metrics.batches.inc();
    metrics.batch_size.record(batch.size());
  }
  // Coalesce: group the batch by circuit identity so one worker resolves
  // each distinct structure (and its hashes) exactly once while distinct
  // circuits fan out across the pool in parallel.
  std::map<const Circuit*, std::vector<std::unique_ptr<Pending>>> groups;
  for (auto& p : batch) groups[p->request.circuit.get()].push_back(std::move(p));
  for (auto& [circuit, group] : groups) {
    (void)circuit;
    auto shared_group = std::make_shared<
        std::vector<std::unique_ptr<Pending>>>(std::move(group));
    pool_.submit([this, shared_group] {
      // Forward passes (and completion hooks, e.g. the api layer's task
      // heads) run under the engine's intra-circuit executor: large kernels
      // fan out over the same pool this worker came from.
      nn::ExecutorScope nn_scope(nn_exec_);
      // One hash computation serves the whole group (same Circuit object).
      const Circuit& c = *(*shared_group)[0]->request.circuit;
      const CircuitHashes hashes{structural_hash(c), exact_hash(c)};
      for (auto& p : *shared_group) {
        try {
          p->deliver(process(p->request, p->enqueued, hashes));
        } catch (...) {
          obs::count_task_failed(p->request.trace.kind);
          p->fail(std::current_exception());
        }
      }
    });
  }
}

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

EmbeddingResult InferenceEngine::process(
    const EmbeddingRequest& request,
    std::chrono::steady_clock::time_point enqueued,
    const CircuitHashes& hashes) {
  if (request.backend == nullptr)
    throw Error("InferenceEngine: request without a backend");
  const api::EmbeddingBackend& backend = *request.backend;
  const std::uint64_t fingerprint = backend.info().fingerprint;

  const auto start = std::chrono::steady_clock::now();
  EmbeddingResult result;
  result.backend = request.backend;
  result.trace = request.trace;
  result.queue_ms = ms_since(enqueued, start);

  result.structure = hashes.structural;
  const StructureKey skey{hashes.structural, hashes.exact, fingerprint};

  // Tracing is per-task: only requests carrying a Session-assigned context
  // record spans (and only while the global switch is on — one relaxed
  // load on the disabled path, no extra clock reads).
  const bool tracing = request.trace.kind != nullptr && obs::tracing_enabled();
  const std::uint64_t digest = hashes.structural.digest;
  if (tracing)
    obs::TraceSink::global().record(
        make_span("queue", obs::to_trace_ns(enqueued), obs::to_trace_ns(start),
                  request.trace, digest));

  EmbeddingKey ekey;
  ekey.structure = hashes.structural;
  ekey.exact = hashes.exact;
  ekey.backend_fingerprint = fingerprint;
  ekey.workload_fingerprint = workload_fingerprint(request.workload);
  ekey.init_seed = request.init_seed;
  result.key = ekey;

  // Timed, traced structure resolve ("resolve" span; hit/miss as an arg).
  const auto traced_resolve = [&] {
    const std::uint64_t t0 = tracing ? obs::trace_now_ns() : 0;
    auto structure = resolve_structure(backend, *request.circuit, skey,
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

  const auto finish_cached = [&](std::shared_ptr<const nn::Tensor> cached) {
    result.embedding = std::move(cached);
    result.embedding_cache_hit = true;
    if (request.want_state) result.state = traced_resolve();
    result.total_ms = ms_since(enqueued, std::chrono::steady_clock::now());
    return result;
  };

  if (request.want_embedding && config_.cache_embeddings) {
    if (auto cached = cache_.get_embedding(ekey)) return finish_cached(cached);
  }

  // Requests wanting neither the forward pass nor the state (e.g. the
  // testability task, which reads the circuit alone) skip prepare entirely.
  if (request.want_embedding || request.want_state) {
    const auto structure = traced_resolve();
    if (request.want_state) result.state = structure;

    if (request.want_embedding) {
      // The "embed" span folds the nn layer's work (nn::ExecStats) into the
      // task trace: fused chains, kernel steps, flushes, scheduler global
      // syncs, released chains, state rows read, simd lanes.
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
        metrics.nn_chains.inc(static_cast<std::uint64_t>(exec_stats.chains));
        metrics.nn_steps.inc(static_cast<std::uint64_t>(exec_stats.steps));
        metrics.nn_global_syncs.inc(
            static_cast<std::uint64_t>(exec_stats.global_syncs));
        metrics.nn_released_chains.inc(
            static_cast<std::uint64_t>(exec_stats.released_chains));
        metrics.nn_slab_gather_rows.inc(
            static_cast<std::uint64_t>(exec_stats.slab_gather_rows));
        obs::TraceEvent e =
            make_span("embed", t0, obs::trace_now_ns(), request.trace, digest);
        e.arg_name[0] = "chains";
        e.arg[0] = exec_stats.chains;
        e.arg_name[1] = "steps";
        e.arg[1] = exec_stats.steps;
        e.arg_name[2] = "flushes";
        e.arg[2] = exec_stats.flushes;
        e.arg_name[3] = "global_syncs";
        e.arg[3] = exec_stats.global_syncs;
        e.arg_name[4] = "released_chains";
        e.arg[4] = exec_stats.released_chains;
        e.arg_name[5] = "slab_gather_rows";
        e.arg[5] = exec_stats.slab_gather_rows;
        e.arg_name[6] = "simd_lanes";
        e.arg[6] = exec_stats.simd_lanes;
        obs::TraceSink::global().record(e);
      }
      if (config_.cache_embeddings) cache_.put_embedding(ekey, embedding);
      result.embedding = std::move(embedding);
    }
  }

  const auto end = std::chrono::steady_clock::now();
  result.compute_ms = ms_since(start, end);
  result.total_ms = ms_since(enqueued, end);
  return result;
}

EmbeddingResult InferenceEngine::run_sync(const EmbeddingRequest& request) {
  if (request.circuit == nullptr)
    throw Error("InferenceEngine: request without a circuit");
  nn::ExecutorScope nn_scope(nn_exec_);
  const CircuitHashes hashes{structural_hash(*request.circuit),
                             exact_hash(*request.circuit)};
  return process(request, std::chrono::steady_clock::now(), hashes);
}

std::shared_ptr<const api::Regression> InferenceEngine::regress_cached(
    const EmbeddingKey& key, const api::EmbeddingBackend& backend,
    const nn::Tensor& embedding, bool* cache_hit) {
  nn::ExecutorScope nn_scope(nn_exec_);
  if (!config_.cache_embeddings) {
    // Reference / cold-path mode: no derived caching either.
    if (cache_hit != nullptr) *cache_hit = false;
    return std::make_shared<const api::Regression>(backend.regress(embedding));
  }
  bool miss = false;
  auto reg = cache_.get_or_build_regression(key, [&] {
    miss = true;
    return std::make_shared<const api::Regression>(backend.regress(embedding));
  });
  if (cache_hit != nullptr) *cache_hit = !miss;
  return reg;
}

}  // namespace deepseq::runtime
