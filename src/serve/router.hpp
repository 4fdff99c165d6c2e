#pragma once

// Shard-by-structural-hash routing: the in-process multi-worker core of the
// serving tier. N shards each own a full api::Session — and with it a
// private CircuitCache — and every request is routed by the netlist's
// structural hash, so isomorphic circuits ALWAYS land on the shard whose
// cache is already warm (node renamings/reorderings included: the hash is
// node-id-invariant). Routing is a pure function of the hash, hence stable
// across server restarts — a fleet front end can build the same placement
// from the same netlists forever.
//
// Each shard runs its own AdmissionQueue and worker threads; workers serve
// jobs through Session::run_sync, so a routed result is exactly what a
// direct in-process call produces.
//
// The router hashes nothing. submit() takes the circuit's identity from
// its caller: serve::Server's circuit memo decodes and hashes each new
// circuit section once, and a byte-identical repeat reuses both. The router
// routes by the identity's structural hash and hands the identity to the
// shard's Session through the trusted run_sync overload, so the session
// and its engine do not hash either.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <variant>
#include <vector>

#include "api/session.hpp"
#include "netlist/structural_hash.hpp"
#include "serve/admission.hpp"

namespace deepseq::artifact {
class Artifact;
}

namespace deepseq::serve {

struct RouterConfig {
  /// Session shards; each owns its backends, engine and caches.
  int shards = 1;
  /// Worker threads per shard draining its admission queue via run_sync.
  int workers_per_shard = 2;
  /// Per-shard admission knobs (workers/clock fields are overwritten per
  /// shard from workers_per_shard and the shared clock).
  AdmissionConfig admission;
  /// Session preset every shard is built from (each shard constructs its
  /// own instances through the registry).
  api::SessionConfig session;
};

/// The terminal state of one routed request: exactly one of a served
/// result, a typed shed, or the exception the compute path raised.
struct RoutedOutcome {
  std::variant<api::TaskResult, ShedReason, std::exception_ptr> value;
  int shard = -1;

  bool ok() const { return std::holds_alternative<api::TaskResult>(value); }
};

class ShardRouter {
 public:
  explicit ShardRouter(const RouterConfig& config);
  /// Sheds everything still queued (kShutdown), joins all workers.
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Pure routing function: which shard serves this structure. Stable
  /// across processes (it depends only on the hash and the shard count).
  int shard_for(const StructuralHash& h) const;

  /// Route + admit + serve. `identity` must be
  /// circuit_identity(*request.circuit): the router routes by it and the
  /// shard's Session keys its caches on it (a wrong one serves another
  /// circuit's cached results). The outcome callback fires exactly once,
  /// from a shard worker (admitted path) or the calling thread (immediate
  /// shed / pre-admission failure). `deadline_ns` is absolute on the
  /// admission clock (0 = none). Never throws.
  void submit(api::TaskRequest request, const CircuitIdentity& identity,
              std::uint64_t deadline_ns,
              std::function<void(RoutedOutcome&&)> done);

  /// Coordinated weight push: rebuild + swap on EVERY shard (tasks a
  /// shard is already running keep their own backend handle and finish on
  /// the old weights, so nothing is dropped anywhere). Returns the new
  /// serving fingerprint, identical across shards. Throws on the first
  /// failing shard, leaving earlier shards flipped. Within one call, a
  /// shard that already serves the fingerprint an earlier shard flipped to
  /// is tolerated (its Session rejects the push as a no-op), so a push that
  /// failed partway can be driven to completion by retrying while shard 0
  /// still serves the old weights.
  std::uint64_t reload_all(std::shared_ptr<const artifact::Artifact> artifact,
                           const std::string& backend = "");

  /// Fingerprint currently served for `backend` (empty = default) by shard
  /// `i` — coordination tests assert these are equal across shards.
  std::uint64_t shard_fingerprint(int i, const std::string& backend = "");

  struct ShardStats {
    runtime::CircuitCache::Stats cache;
    AdmissionQueue::Counts admission;
    std::size_t queued = 0;
    std::uint64_t served = 0;  // jobs a worker completed (ok or failed)
  };
  ShardStats shard_stats(int i) const;

  AdmissionQueue& admission(int i) { return *shards_[static_cast<std::size_t>(i)]->queue; }
  api::Session& session(int i) { return shards_[static_cast<std::size_t>(i)]->session; }

 private:
  struct Shard {
    explicit Shard(const api::SessionConfig& scfg) : session(scfg) {}
    api::Session session;
    std::unique_ptr<AdmissionQueue> queue;
    std::vector<std::thread> workers;
    std::atomic<std::uint64_t> served{0};
  };

  void worker_loop(Shard& shard);

  RouterConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace deepseq::serve
