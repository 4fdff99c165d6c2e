#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/backend.hpp"
#include "netlist/circuit.hpp"
#include "netlist/scoap.hpp"
#include "netlist/structural_hash.hpp"
#include "nn/tensor.hpp"
#include "obs/metrics.hpp"
#include "power/power_analyzer.hpp"
#include "sim/workload.hpp"

namespace deepseq::runtime {

/// Hit/miss/eviction counters of one cache layer. Snapshot via
/// CircuitCache::stats(); counters are monotonic over the cache lifetime.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Sharded LRU map from a hashable key to shared_ptr<const Value>. Each
/// shard is an independent mutex + LRU list + index, so concurrent lookups
/// of different circuits rarely contend. Key must provide hash64() and
/// operator== (the full key is stored and compared — the 64-bit hash only
/// picks the shard/bucket, it is not trusted for identity).
///
/// get_or_build() runs the builder OUTSIDE the shard lock: two threads
/// missing the same key concurrently may both build (last insert wins,
/// both callers get a usable value). That wastes one build at worst and
/// keeps the lock from ever being held across expensive work.
template <typename Key, typename Value>
class ShardedLruCache {
 public:
  ShardedLruCache(std::size_t capacity, std::size_t num_shards = 8)
      : shards_(std::max<std::size_t>(1, num_shards)) {
    const std::size_t per_shard =
        std::max<std::size_t>(1, capacity / shards_.size());
    for (auto& s : shards_) s.capacity = per_shard;
  }

  /// Mirror this cache's hit/miss/eviction counts into obs counters (the
  /// process-wide metrics export); pass nullptrs to detach. The internal
  /// counters keep running either way.
  void bind_obs(obs::Counter* hits, obs::Counter* misses,
                obs::Counter* evictions) {
    obs_hits_ = hits;
    obs_misses_ = misses;
    obs_evictions_ = evictions;
  }

  std::shared_ptr<const Value> get(const Key& key) {
    Shard& s = shard_for(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto range = s.index.equal_range(key.hash64());
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second->first == key) {
        s.lru.splice(s.lru.begin(), s.lru, it->second);  // move to front
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (obs_hits_ != nullptr) obs_hits_->inc();
        return it->second->second;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (obs_misses_ != nullptr) obs_misses_->inc();
    return nullptr;
  }

  void put(const Key& key, std::shared_ptr<const Value> value) {
    Shard& s = shard_for(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto range = s.index.equal_range(key.hash64());
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second->first == key) {
        it->second->second = std::move(value);
        s.lru.splice(s.lru.begin(), s.lru, it->second);
        return;
      }
    }
    s.lru.emplace_front(key, std::move(value));
    s.index.emplace(key.hash64(), s.lru.begin());
    if (s.lru.size() > s.capacity) evict_lru(s);
  }

  /// get() or build-and-put(); always returns a non-null value (assuming
  /// the builder returns one).
  template <typename Builder>
  std::shared_ptr<const Value> get_or_build(const Key& key,
                                            Builder&& builder) {
    if (auto v = get(key)) return v;
    std::shared_ptr<const Value> built = builder();
    put(key, built);
    return built;
  }

  CacheCounters counters() const {
    CacheCounters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.evictions = evictions_.load(std::memory_order_relaxed);
    return c;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      n += s.lru.size();
    }
    return n;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::size_t capacity = 1;
    // Front = most recently used. Entries own the full key for exact
    // comparison; the multimap bucket key is the 64-bit hash.
    std::list<std::pair<Key, std::shared_ptr<const Value>>> lru;
    std::unordered_multimap<
        std::uint64_t,
        typename std::list<std::pair<Key, std::shared_ptr<const Value>>>::iterator>
        index;
  };

  Shard& shard_for(const Key& key) {
    return shards_[(key.hash64() >> 56) % shards_.size()];
  }

  void evict_lru(Shard& s) {
    const auto victim = std::prev(s.lru.end());
    auto range = s.index.equal_range(victim->first.hash64());
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == victim) {
        s.index.erase(it);
        break;
      }
    }
    s.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (obs_evictions_ != nullptr) obs_evictions_->inc();
  }

  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> hits_{0}, misses_{0}, evictions_{0};
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
};

// ---- circuit-serving cache layers -----------------------------------------

/// Key of the structure layer: the circuit's content hash PLUS its
/// creation-order (exact) hash PLUS the backend fingerprint the state was
/// prepared by. The exact component is load-bearing for correctness:
/// cached backend states and embedding matrices are indexed by node id, so
/// an isomorphic circuit with permuted ids must NOT share an entry — its
/// caller would read other nodes' rows. Byte-identical netlists (same file
/// parsed again — the hot serving case) produce identical creation orders
/// and still share. The backend fingerprint keeps differently-configured
/// backends' states (levelized schedules vs ancestor sets, different
/// hyper-parameters) apart.
struct StructureKey {
  StructuralHash hash;
  std::uint64_t exact = 0;
  std::uint64_t backend = 0;  // api::BackendInfo::fingerprint

  std::uint64_t hash64() const { return hash_mix(hash.digest, backend); }
  bool operator==(const StructureKey& o) const {
    return hash == o.hash && exact == o.exact && backend == o.backend;
  }
};

/// Key of the embedding layer: structure + backend identity + workload +
/// init seed — everything the deterministic forward pass depends on.
struct EmbeddingKey {
  StructuralHash structure;
  std::uint64_t exact = 0;  // see StructureKey::exact
  std::uint64_t backend_fingerprint = 0;
  std::uint64_t workload_fingerprint = 0;
  std::uint64_t init_seed = 0;

  std::uint64_t hash64() const;
  bool operator==(const EmbeddingKey& o) const;
};

/// Key of the SCOAP layer: the circuit's two digests. SCOAP measures read
/// the circuit alone and are indexed by node id, so an isomorphic circuit
/// with permuted ids gets its own entry (see StructureKey::exact).
struct ScoapKey {
  StructuralHash structure;
  std::uint64_t exact = 0;

  std::uint64_t hash64() const { return hash_mix(structure.digest, exact); }
  bool operator==(const ScoapKey& o) const {
    return structure == o.structure && exact == o.exact;
  }
};

/// Bitwise-exact fingerprint of a workload (PI probabilities + pattern
/// seed) for embedding-cache keys.
std::uint64_t workload_fingerprint(const Workload& w);

/// Capacities of the cache layers. The power layer holds
/// regression_capacity entries and the SCOAP layer structure_capacity.
struct CircuitCacheConfig {
  std::size_t structure_capacity = 128;
  std::size_t embedding_capacity = 1024;
  std::size_t regression_capacity = 1024;
  std::size_t shards = 8;
};

/// The serving cache: per-backend structure states (prepare once per
/// netlist), final embeddings (skip the forward pass entirely on repeat
/// requests), and regression-head outputs keyed by the same EmbeddingKey
/// (warm multi-task logic/transition-probability/power traffic skips the
/// two-head MLP forward as well). Two task-head layers sit beside them:
/// power reports keyed by the EmbeddingKey whose regression heads they were
/// computed from, and SCOAP measures keyed by the circuit alone (ScoapKey).
/// Each cache belongs to one api::Session, so the session's fixed power
/// duration and SCOAP options need no key field. All methods are
/// thread-safe.
class CircuitCache {
 public:
  explicit CircuitCache(const CircuitCacheConfig& config = {});

  std::shared_ptr<const api::BackendState> get_structure(
      const StructureKey& k) {
    return structures_.get(k);
  }
  template <typename Builder>
  std::shared_ptr<const api::BackendState> get_or_build_structure(
      const StructureKey& k, Builder&& b) {
    return structures_.get_or_build(k, std::forward<Builder>(b));
  }

  std::shared_ptr<const nn::Tensor> get_embedding(const EmbeddingKey& k) {
    return embeddings_.get(k);
  }
  void put_embedding(const EmbeddingKey& k,
                     std::shared_ptr<const nn::Tensor> v) {
    embeddings_.put(k, std::move(v));
  }

  std::shared_ptr<const api::Regression> get_regression(const EmbeddingKey& k) {
    return regressions_.get(k);
  }
  template <typename Builder>
  std::shared_ptr<const api::Regression> get_or_build_regression(
      const EmbeddingKey& k, Builder&& b) {
    return regressions_.get_or_build(k, std::forward<Builder>(b));
  }

  template <typename Builder>
  std::shared_ptr<const PowerReport> get_or_build_power(const EmbeddingKey& k,
                                                        Builder&& b) {
    return powers_.get_or_build(k, std::forward<Builder>(b));
  }

  template <typename Builder>
  std::shared_ptr<const ScoapMeasures> get_or_build_scoap(const ScoapKey& k,
                                                          Builder&& b) {
    return scoaps_.get_or_build(k, std::forward<Builder>(b));
  }

  struct Stats {
    CacheCounters structures;
    CacheCounters embeddings;
    CacheCounters regressions;
    CacheCounters powers;
    CacheCounters scoaps;
    std::size_t structure_entries = 0;
    std::size_t embedding_entries = 0;
    std::size_t regression_entries = 0;
    std::size_t power_entries = 0;
    std::size_t scoap_entries = 0;
  };
  Stats stats() const;

 private:
  ShardedLruCache<StructureKey, api::BackendState> structures_;
  ShardedLruCache<EmbeddingKey, nn::Tensor> embeddings_;
  ShardedLruCache<EmbeddingKey, api::Regression> regressions_;
  ShardedLruCache<EmbeddingKey, PowerReport> powers_;
  ShardedLruCache<ScoapKey, ScoapMeasures> scoaps_;
};

}  // namespace deepseq::runtime
