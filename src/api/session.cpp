#include "api/session.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/pipeline.hpp"

namespace deepseq::api {
namespace {

double ms_between(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

constexpr int kNumTaskKinds = 6;

/// Per-TaskKind serving metrics on the process-wide registry: submit/
/// complete/fail counters and total/compute latency histograms (recorded
/// in ns; names carry the kind, e.g. "task.submitted.power"). Resolved once
/// per process; recording is lock-free.
struct TaskMetrics {
  obs::Counter* submitted;
  obs::Counter* completed;
  obs::Counter* failed;
  obs::Histogram* total_ns;
  obs::Histogram* compute_ns;
};

const TaskMetrics& task_metrics(TaskKind k) {
  static const std::array<TaskMetrics, kNumTaskKinds> all = [] {
    std::array<TaskMetrics, kNumTaskKinds> a{};
    auto& reg = obs::Registry::global();
    for (int i = 0; i < kNumTaskKinds; ++i) {
      const std::string kind = task_name(static_cast<TaskKind>(i));
      a[i] = TaskMetrics{&reg.counter("task.submitted." + kind),
                         &reg.counter("task.completed." + kind),
                         &reg.counter("task.failed." + kind),
                         &reg.histogram("task.total_ns." + kind),
                         &reg.histogram("task.compute_ns." + kind)};
    }
    return a;
  }();
  return all[static_cast<int>(k)];
}

/// Which parts of the embedding pipeline a task consumes.
bool task_needs_embedding(TaskKind k) {
  switch (k) {
    case TaskKind::kEmbedding:
    case TaskKind::kLogicProb:
    case TaskKind::kTransitionProb:
    case TaskKind::kPower:
      return true;
    case TaskKind::kReliability:
    case TaskKind::kTestability:
      return false;
  }
  return true;
}

bool task_needs_state(TaskKind k) { return k == TaskKind::kReliability; }

bool task_needs_regress(TaskKind k) {
  return k == TaskKind::kLogicProb || k == TaskKind::kTransitionProb ||
         k == TaskKind::kPower;
}

}  // namespace

const char* task_name(TaskKind k) {
  switch (k) {
    case TaskKind::kEmbedding: return "embedding";
    case TaskKind::kLogicProb: return "logic-prob";
    case TaskKind::kTransitionProb: return "transition-prob";
    case TaskKind::kPower: return "power";
    case TaskKind::kReliability: return "reliability";
    case TaskKind::kTestability: return "testability";
  }
  return "?";
}

Session::Session(const SessionConfig& config, BackendRegistry& registry)
    : config_(config), registry_(registry), engine_(config.engine) {
  // Fail fast on a misconfigured default and have it ready before the first
  // request (backend construction builds model weights — not something to
  // pay inside a latency-sensitive first request).
  config_.backend = registry_.resolve(config_.backend, "deepseq");
  (void)backend(config_.backend);
  // Tracing: explicit config wins, else the DEEPSEQ_TRACE env knob. The
  // path is created/truncated NOW so a typo fails construction (the same
  // fail-fast contract as DEEPSEQ_ARTIFACT), not after a whole run.
  trace_path_ = config_.trace_path.empty() ? obs::trace_path_from_env()
                                           : config_.trace_path;
  if (!trace_path_.empty()) {
    obs::validate_trace_path(trace_path_);
    tracing_prev_ = obs::tracing_enabled();
    obs::set_tracing_enabled(true);
  }
}

Session::~Session() {
  if (trace_path_.empty()) return;
  try {
    obs::write_chrome_trace(trace_path_);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[obs] trace dump failed: %s\n", e.what());
  }
  obs::set_tracing_enabled(tracing_prev_);
}

const EmbeddingBackend& Session::backend(const std::string& name) {
  return *backend_handle(name);
}

std::shared_ptr<const EmbeddingBackend> Session::backend_handle(
    const std::string& name) {
  const std::string& key = name.empty() ? config_.backend : name;
  {
    std::lock_guard<std::mutex> lock(backends_mu_);
    const auto it = backends_.find(key);
    if (it != backends_.end()) return it->second;
  }
  // Construct outside the lock: building a backend means building model
  // weights, and holding backends_mu_ through that would stall every
  // concurrent request (including ones for already-built backends). If two
  // threads race, both build deterministically identical backends and the
  // first insert wins.
  std::shared_ptr<EmbeddingBackend> created =
      registry_.create(key, config_.backends);
  std::lock_guard<std::mutex> lock(backends_mu_);
  return backends_.emplace(key, std::move(created)).first->second;
}

std::uint64_t Session::reload_weights(
    std::shared_ptr<const artifact::Artifact> artifact,
    const std::string& name) {
  if (artifact == nullptr)
    throw Error("Session::reload_weights: null artifact");
  const std::string key = name.empty() ? config_.backend : name;
  // Build the replacement through the same registry path as construction,
  // so kind/architecture mismatches fail here, before anything is swapped.
  BackendOptions options = config_.backends;
  options.artifact = std::move(artifact);
  // One push at a time: without this, two concurrent reloads could both
  // pass the no-op guard and swap in arbitrary order, leaving one caller
  // holding a "new serving fingerprint" that is not actually live.
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  std::shared_ptr<EmbeddingBackend> replacement =
      registry_.create(key, options);
  const std::uint64_t fingerprint = replacement->info().fingerprint;
  // A push that does not change the serving fingerprint cannot be told
  // apart from a factory that ignored BackendOptions::artifact (a custom
  // registration that never reads it) — fail fast instead of reporting a
  // successful push that served nothing new. Only an already-built
  // instance can be "live"; a never-served name has nothing to compare.
  {
    std::lock_guard<std::mutex> lock(backends_mu_);
    const auto it = backends_.find(key);
    if (it != backends_.end() &&
        it->second->info().fingerprint == fingerprint)
      throw Error("Session::reload_weights: rebuilding '" + key +
                  "' from the artifact did not change the serving "
                  "fingerprint — either these exact weights are already "
                  "live, or the '" + key +
                  "' factory ignores BackendOptions::artifact");
  }
  // Running run_sync calls each own a handle on the instance they started
  // with, so the swap never pulls weights out from under a forward pass.
  {
    std::lock_guard<std::mutex> lock(backends_mu_);
    backends_[key] = std::move(replacement);
  }
  // Swap events are rare and operationally interesting: always count, and
  // drop an instant marker into the trace when one is being recorded.
  obs::Registry::global().counter("session.reload_weights").inc();
  if (obs::tracing_enabled()) {
    obs::TraceEvent e;
    e.name = "reload_weights";
    e.cat = "session";
    e.ph = 'i';
    e.ts_ns = obs::trace_now_ns();
    e.ctx.backend_fingerprint = fingerprint;
    obs::TraceSink::global().record(e);
  }
  return fingerprint;
}

runtime::EmbeddingRequest Session::to_engine_request(
    const TaskRequest& request, const CircuitIdentity& identity,
    const EmbeddingBackend& be) const {
  if (!request.circuit)
    throw Error("Session: request without a circuit");
  if (task_needs_regress(request.task) && !be.info().supports_regress)
    throw Error(std::string("task '") + task_name(request.task) +
                "' needs regress heads, which backend '" + be.info().name +
                "' does not provide");
  if (request.task == TaskKind::kReliability && !be.info().supports_reliability)
    throw Error(std::string("backend '") + be.info().name +
                "' does not support the reliability task");
  runtime::EmbeddingRequest er;
  er.circuit = request.circuit;
  er.identity = identity;
  er.workload = request.workload;
  er.backend = &be;
  er.init_seed = request.init_seed;
  er.want_embedding = task_needs_embedding(request.task);
  er.want_state = task_needs_state(request.task);
  return er;
}

TaskResult Session::finish(const TaskRequest& request,
                           const EmbeddingBackend& be,
                           runtime::EmbeddingResult&& er) {
  const auto head_start = std::chrono::steady_clock::now();
  TaskResult result;
  result.task = request.task;
  result.backend = be.info().name;
  result.structure = er.structure;
  result.structure_cache_hit = er.structure_cache_hit;
  result.embedding_cache_hit = er.embedding_cache_hit;

  // Probability heads are cached under the request's EmbeddingKey, beside
  // the embedding itself: the shared_ptr aliasing below hands out views into
  // the cached Regression without copying.
  const auto regression = [&]() {
    return engine_.regress_cached(er.key, be, *er.embedding,
                                  &result.regression_cache_hit);
  };
  // Whether the power or SCOAP layer served this task's head. It is traced
  // on the "head" span only; the reply carries no flag for it.
  bool head_cache_hit = false;

  switch (request.task) {
    case TaskKind::kEmbedding: {
      result.output = EmbeddingOutput{std::move(er.embedding)};
      break;
    }
    case TaskKind::kLogicProb: {
      auto reg = regression();
      result.output =
          LogicProbOutput{std::shared_ptr<const nn::Tensor>(reg, &reg->lg)};
      break;
    }
    case TaskKind::kTransitionProb: {
      auto reg = regression();
      result.output =
          TransitionProbOutput{std::shared_ptr<const nn::Tensor>(reg, &reg->tr)};
      break;
    }
    case TaskKind::kPower: {
      const auto reg = regression();
      PowerOutput out;
      const std::size_t n = request.circuit->num_nodes();
      out.logic1.resize(n);
      out.toggle_rate.resize(n);
      for (std::size_t v = 0; v < n; ++v) {
        const int row = static_cast<int>(v);
        out.logic1[v] = reg->lg.at(row, 0);
        out.toggle_rate[v] = reg->tr.at(row, 0) + reg->tr.at(row, 1);
      }
      // The report is a function of the gate types, this activity (itself
      // a function of er.key) and the session's duration: unique_node_names
      // makes the SAIF name match independent of the netlist's names.
      head_cache_hit = true;
      out.report = *engine_.cache().get_or_build_power(er.key, [&] {
        head_cache_hit = false;
        return std::make_shared<const PowerReport>(
            power_from_activity(*request.circuit, out.logic1,
                                out.toggle_rate, config_.power_duration));
      });
      result.output = std::move(out);
      break;
    }
    case TaskKind::kReliability: {
      ReliabilityEstimate est = be.reliability(*er.state, request.workload,
                                               /*pos=*/{}, request.init_seed);
      result.output = ReliabilityOutput{est.circuit_reliability,
                                        std::move(est.node_reliability)};
      break;
    }
    case TaskKind::kTestability: {
      head_cache_hit = true;
      const auto scoap = engine_.cache().get_or_build_scoap(
          runtime::ScoapKey{er.structure, er.key.exact}, [&] {
            head_cache_hit = false;
            return std::make_shared<const ScoapMeasures>(
                compute_scoap(*request.circuit, config_.scoap));
          });
      result.output = TestabilityOutput{*scoap};
      break;
    }
  }

  const auto head_end = std::chrono::steady_clock::now();
  result.compute_ms = er.compute_ms + ms_between(head_start, head_end);
  result.total_ms = result.compute_ms;

  // Completion accounting: counters and latency histograms per kind, plus
  // the last two spans of the task's trace chain — "head" (this task head)
  // and the whole-task "task" span that ties the chain together in the
  // Chrome trace.
  const TaskMetrics& metrics = task_metrics(request.task);
  metrics.completed->inc();
  metrics.total_ns->record_ms(result.total_ms);
  metrics.compute_ns->record_ms(result.compute_ms);
  if (er.trace.kind != nullptr && obs::tracing_enabled()) {
    obs::TraceEvent head;
    head.name = "head";
    head.ts_ns = obs::to_trace_ns(head_start);
    head.dur_ns = obs::to_trace_ns(head_end) - head.ts_ns;
    head.ctx = er.trace;
    head.structure = er.structure.digest;
    head.arg_name[0] = "regression_cache_hit";
    head.arg[0] = result.regression_cache_hit ? 1 : 0;
    head.arg_name[1] = "head_cache_hit";
    head.arg[1] = head_cache_hit ? 1 : 0;
    obs::TraceSink::global().record(head);

    obs::TraceEvent task;
    task.name = "task";
    const std::uint64_t end_ns = obs::to_trace_ns(head_end);
    const auto total_ns = static_cast<std::uint64_t>(result.total_ms * 1e6);
    task.ts_ns = end_ns > total_ns ? end_ns - total_ns : 0;
    task.dur_ns = end_ns - task.ts_ns;
    task.ctx = er.trace;
    task.structure = er.structure.digest;
    task.arg_name[0] = "structure_cache_hit";
    task.arg[0] = result.structure_cache_hit ? 1 : 0;
    task.arg_name[1] = "embedding_cache_hit";
    task.arg[1] = result.embedding_cache_hit ? 1 : 0;
    obs::TraceSink::global().record(task);
  }
  return result;
}

TaskResult Session::run_sync(const TaskRequest& request) {
  // A missing circuit falls through to the overload, which rejects it and
  // counts the failure.
  return run_sync(request, request.circuit != nullptr
                               ? circuit_identity(*request.circuit)
                               : CircuitIdentity{});
}

TaskResult Session::run_sync(const TaskRequest& request,
                             const CircuitIdentity& identity) {
  const TaskMetrics& metrics = task_metrics(request.task);
  metrics.submitted->inc();
  try {
    const std::shared_ptr<const EmbeddingBackend> be =
        backend_handle(request.backend);
    runtime::EmbeddingRequest er = to_engine_request(request, identity, *be);
    er.trace.kind = task_name(request.task);
    er.trace.backend_fingerprint = be->info().fingerprint;
    if (obs::tracing_enabled()) er.trace.task_id = obs::next_task_id();
    return finish(request, *be, engine_.run_sync(er));
  } catch (...) {
    metrics.failed->inc();
    throw;
  }
}

}  // namespace deepseq::api
