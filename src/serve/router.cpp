#include "serve/router.hpp"

#include <chrono>
#include <utility>

#include "artifact/artifact.hpp"
#include "common/error.hpp"

namespace deepseq::serve {
namespace {

/// Domain separator so the shard index is not simply the cache shard the
/// same digest picks inside a CircuitCache.
constexpr std::uint64_t kRouteSalt = 0x73657276652e7274ULL;  // "serve.rt"

}  // namespace

ShardRouter::ShardRouter(const RouterConfig& config) : config_(config) {
  if (config_.shards < 1)
    throw Error("ShardRouter: shards must be >= 1, got " +
                std::to_string(config_.shards));
  if (config_.workers_per_shard < 1)
    throw Error("ShardRouter: workers_per_shard must be >= 1, got " +
                std::to_string(config_.workers_per_shard));
  AdmissionConfig acfg = config_.admission;
  acfg.workers = config_.workers_per_shard;
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>(config_.session);
    shard->queue = std::make_unique<AdmissionQueue>(acfg);
    shards_.push_back(std::move(shard));
  }
  // Workers start only after every shard exists: a worker never observes a
  // partially-built router.
  for (auto& shard : shards_) {
    for (int w = 0; w < config_.workers_per_shard; ++w)
      shard->workers.emplace_back([this, &shard = *shard] { worker_loop(shard); });
  }
}

ShardRouter::~ShardRouter() {
  for (auto& shard : shards_) shard->queue->shutdown();
  for (auto& shard : shards_)
    for (std::thread& t : shard->workers) t.join();
}

int ShardRouter::shard_for(const StructuralHash& h) const {
  std::uint64_t mixed = hash_mix(kRouteSalt, h.digest);
  mixed = hash_mix(mixed, (static_cast<std::uint64_t>(h.num_nodes) << 32) |
                              h.num_ffs);
  return static_cast<int>(mixed % static_cast<std::uint64_t>(shards_.size()));
}

void ShardRouter::worker_loop(Shard& shard) {
  Job job;
  while (shard.queue->pop(job)) {
    job.run();
    shard.served.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShardRouter::submit(api::TaskRequest request,
                         const CircuitIdentity& identity,
                         std::uint64_t deadline_ns,
                         std::function<void(RoutedOutcome&&)> done) {
  if (!request.circuit) {
    RoutedOutcome out;
    out.value = std::make_exception_ptr(
        Error("ShardRouter::submit: request without a circuit"));
    done(std::move(out));
    return;
  }
  const int shard_index = shard_for(identity.structure);
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  Job job;
  job.kind = static_cast<int>(request.task);
  job.deadline_ns = deadline_ns;
  // The two callbacks split one shared `done`: exactly one of them fires
  // (pop delivers to run; pop-side expiry and shutdown drain call shed).
  job.shed = [done, shard_index](ShedReason reason) {
    RoutedOutcome out;
    out.value = reason;
    out.shard = shard_index;
    done(std::move(out));
  };
  job.run = [&shard, shard_index, identity,
             request = std::move(request), done]() mutable {
    RoutedOutcome out;
    out.shard = shard_index;
    const auto t0 = std::chrono::steady_clock::now();
    const int kind = static_cast<int>(request.task);
    try {
      out.value = shard.session.run_sync(request, identity);
    } catch (...) {
      out.value = std::current_exception();
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    // Feed the admission model from real service times — including failed
    // computes, which occupy a worker all the same.
    shard.queue->record_service_ns(kind, static_cast<std::uint64_t>(ns));
    done(std::move(out));
  };
  if (auto reason = shard.queue->try_push(std::move(job))) {
    RoutedOutcome out;
    out.value = *reason;
    out.shard = shard_index;
    done(std::move(out));
  }
}

std::uint64_t ShardRouter::reload_all(
    std::shared_ptr<const artifact::Artifact> artifact,
    const std::string& backend) {
  if (artifact == nullptr)
    throw Error("ShardRouter::reload_all: null artifact");
  std::uint64_t fingerprint = 0;
  bool have_fingerprint = false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    try {
      const std::uint64_t fp =
          shards_[s]->session.reload_weights(artifact, backend);
      if (have_fingerprint && fp != fingerprint)
        throw Error("ShardRouter::reload_all: shard " + std::to_string(s) +
                    " flipped to a different fingerprint than shard 0 — "
                    "artifact resolution is not deterministic");
      fingerprint = fp;
      have_fingerprint = true;
    } catch (const Error&) {
      // Retryability: a shard that ALREADY serves the target fingerprint
      // (a retry after a partial earlier push) fails the Session's no-op
      // guard — tolerate exactly that case, re-throw anything else.
      if (have_fingerprint &&
          shard_fingerprint(static_cast<int>(s), backend) == fingerprint)
        continue;
      throw;
    }
  }
  return fingerprint;
}

std::uint64_t ShardRouter::shard_fingerprint(int i, const std::string& backend) {
  return shards_[static_cast<std::size_t>(i)]
      ->session.backend(backend)
      .info()
      .fingerprint;
}

ShardRouter::ShardStats ShardRouter::shard_stats(int i) const {
  const Shard& shard = *shards_[static_cast<std::size_t>(i)];
  ShardStats out;
  out.cache = shard.session.cache_stats();
  out.admission = shard.queue->counts();
  out.queued = shard.queue->size();
  out.served = shard.served.load(std::memory_order_relaxed);
  return out;
}

}  // namespace deepseq::serve
