#include "runtime/circuit_cache.hpp"

#include <cstring>

namespace deepseq::runtime {

std::uint64_t EmbeddingKey::hash64() const {
  std::uint64_t h = structure.digest;
  h = hash_mix(h, exact);
  h = hash_mix(h, backend_fingerprint);
  h = hash_mix(h, workload_fingerprint);
  h = hash_mix(h, init_seed);
  return h;
}

bool EmbeddingKey::operator==(const EmbeddingKey& o) const {
  return structure == o.structure && exact == o.exact &&
         backend_fingerprint == o.backend_fingerprint &&
         workload_fingerprint == o.workload_fingerprint &&
         init_seed == o.init_seed;
}

std::uint64_t workload_fingerprint(const Workload& w) {
  std::uint64_t h = hash_mix(0x3019ULL, w.pi_prob.size());
  for (double p : w.pi_prob) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(p));
    std::memcpy(&bits, &p, sizeof(bits));
    h = hash_mix(h, bits);
  }
  return hash_mix(h, w.pattern_seed);
}

CircuitCache::CircuitCache(const CircuitCacheConfig& config)
    : structures_(config.structure_capacity, config.shards),
      embeddings_(config.embedding_capacity, config.shards),
      regressions_(config.regression_capacity, config.shards),
      powers_(config.regression_capacity, config.shards),
      scoaps_(config.structure_capacity, config.shards) {
  // Export every layer's hit/miss/eviction stream process-wide (all caches
  // of a process aggregate under one name — snapshot deltas isolate one
  // serving run when needed).
  auto& reg = obs::Registry::global();
  const auto bind = [&reg](auto& layer, const char* name) {
    const std::string prefix = std::string("cache.") + name;
    layer.bind_obs(&reg.counter(prefix + ".hits"),
                   &reg.counter(prefix + ".misses"),
                   &reg.counter(prefix + ".evictions"));
  };
  bind(structures_, "structures");
  bind(embeddings_, "embeddings");
  bind(regressions_, "regressions");
  bind(powers_, "power");
  bind(scoaps_, "scoap");
}

CircuitCache::Stats CircuitCache::stats() const {
  Stats s;
  s.structures = structures_.counters();
  s.embeddings = embeddings_.counters();
  s.regressions = regressions_.counters();
  s.powers = powers_.counters();
  s.scoaps = scoaps_.counters();
  s.structure_entries = structures_.size();
  s.embedding_entries = embeddings_.size();
  s.regression_entries = regressions_.size();
  s.power_entries = powers_.size();
  s.scoap_entries = scoaps_.size();
  return s;
}

}  // namespace deepseq::runtime
