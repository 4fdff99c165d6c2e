#include "runtime/circuit_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dataset/embedded.hpp"
#include "dataset/generator.hpp"
#include "netlist/aig.hpp"
#include "netlist/structural_hash.hpp"
#include "netlist/topology.hpp"

namespace deepseq::runtime {
namespace {

// ---- structural hash -------------------------------------------------------

/// Rebuild `c` with a level-shuffled node creation order and randomly
/// swapped commutative fanins: same structure, different node ids.
Circuit permute_node_ids(const Circuit& c, std::uint64_t seed) {
  Rng rng(seed);
  Circuit out(c.name());
  std::vector<NodeId> map(c.num_nodes(), kNullNode);
  for (NodeId pi : c.pis()) map[pi] = out.add_pi();
  for (NodeId ff : c.ffs()) map[ff] = out.add_ff();

  const Levelization lv = comb_levelize(c);
  for (const auto& level : lv.by_level) {
    std::vector<NodeId> nodes = level;
    rng.shuffle(nodes);
    for (NodeId v : nodes) {
      if (map[v] != kNullNode) continue;  // PI/FF already placed
      std::vector<NodeId> fanins;
      for (int i = 0; i < c.num_fanins(v); ++i)
        fanins.push_back(map[c.fanin(v, i)]);
      if (c.type(v) == GateType::kAnd && rng.bernoulli(0.5))
        std::swap(fanins[0], fanins[1]);
      map[v] = c.type(v) == GateType::kConst0 ? out.add_const0()
                                              : out.add_gate(c.type(v), fanins);
    }
  }
  for (std::size_t k = 0; k < c.ffs().size(); ++k)
    out.set_fanin(out.ffs()[k], 0, map[c.fanin(c.ffs()[k], 0)]);
  for (NodeId po : c.pos()) out.add_po(map[po]);
  out.validate();
  return out;
}

Circuit random_aig(std::uint64_t seed, int gates = 120) {
  Rng rng(seed);
  GeneratorSpec spec;
  spec.num_pis = 6;
  spec.num_ffs = 5;
  spec.num_gates = gates;
  for (int t = 0; t < kNumGateTypes; ++t) spec.gate_weights[t] = 0.0;
  spec.gate_weights[static_cast<int>(GateType::kAnd)] = 4.0;
  spec.gate_weights[static_cast<int>(GateType::kNot)] = 2.0;
  return generate_circuit(spec, rng);
}

TEST(StructuralHash, StableAcrossNodeIdPermutations) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Circuit a = random_aig(seed);
    const StructuralHash ha = structural_hash(a);
    for (std::uint64_t p = 0; p < 3; ++p) {
      const Circuit b = permute_node_ids(a, 100 * seed + p);
      EXPECT_EQ(ha, structural_hash(b)) << "seed " << seed << " perm " << p;
    }
  }
}

TEST(StructuralHash, StableForRealBenchmarkCircuit) {
  const Circuit s27 = decompose_to_aig(iscas89_s27()).aig;
  const StructuralHash h = structural_hash(s27);
  EXPECT_EQ(h, structural_hash(permute_node_ids(s27, 9)));
  EXPECT_EQ(h.num_pis, s27.pis().size());
  EXPECT_EQ(h.num_ffs, s27.ffs().size());
}

TEST(StructuralHash, DistinguishesDifferentCircuits) {
  std::vector<std::uint64_t> digests;
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    digests.push_back(structural_hash(random_aig(seed)).digest);
  std::sort(digests.begin(), digests.end());
  EXPECT_EQ(std::unique(digests.begin(), digests.end()), digests.end());
}

TEST(StructuralHash, SensitiveToGateTypeAndWiring) {
  Circuit a("a");
  const NodeId a0 = a.add_pi(), a1 = a.add_pi();
  a.add_po(a.add_and(a0, a1));

  Circuit b("b");  // same shape, NOT on top
  const NodeId b0 = b.add_pi(), b1 = b.add_pi();
  b.add_po(b.add_not(b.add_and(b0, b1)));

  Circuit c("c");  // AND of a PI with itself
  const NodeId c0 = c.add_pi();
  (void)c.add_pi();
  c.add_po(c.add_and(c0, c0));

  const auto ha = structural_hash(a), hb = structural_hash(b),
             hc = structural_hash(c);
  EXPECT_NE(ha, hb);
  EXPECT_NE(ha, hc);
  EXPECT_NE(hb, hc);
}

TEST(StructuralHash, SensitiveToPoOrder) {
  Circuit a("a");
  NodeId p0 = a.add_pi(), p1 = a.add_pi();
  NodeId g = a.add_and(p0, p1), n = a.add_not(g);
  a.add_po(g);
  a.add_po(n);

  Circuit b("b");
  p0 = b.add_pi();
  p1 = b.add_pi();
  g = b.add_and(p0, p1);
  n = b.add_not(g);
  b.add_po(n);  // swapped
  b.add_po(g);

  EXPECT_NE(structural_hash(a), structural_hash(b));
}

// ---- exact_hash ------------------------------------------------------------

/// One change each: the AND becomes another gate type, the two PIs trade
/// places, the last gate reads another fanin, or a second PO is added.
struct Variant {
  GateType gate = GateType::kAnd;
  bool swap_pis = false;
  bool rewire = false;
  bool extra_po = false;
};

/// Two PIs, a NOT, a two-input gate and an AND feeding an FF that loops
/// back into it.
Circuit loop_circuit(const Variant& v = {}) {
  Circuit c("loop");
  NodeId a = c.add_pi("a"), b = c.add_pi("b");
  if (v.swap_pis) std::swap(a, b);
  const NodeId q = c.add_ff(kNullNode, "q");
  const NodeId nb = c.add_not(b, "nb");
  const NodeId g = c.add_gate(v.gate, {a, nb}, "g");
  const NodeId h = c.add_and(g, v.rewire ? nb : q, "h");
  c.set_fanin(q, 0, h);
  c.add_po(h, "out");
  if (v.extra_po) c.add_po(g, "out2");
  c.validate();
  return c;
}

/// A node-for-node copy of `c` with the circuit, every node and every PO
/// renamed.
Circuit renamed_copy(const Circuit& c) {
  Circuit out = c;
  out.set_name(c.name() + "_renamed");
  for (NodeId v = 0; v < out.num_nodes(); ++v)
    out.set_node_name(v, "n" + std::to_string(v) + "_renamed");
  for (std::size_t k = 0; k < out.pos().size(); ++k)
    out.set_po_name(k, "po" + std::to_string(k) + "_renamed");
  return out;
}

TEST(ExactHash, EqualForARenamedCopy) {
  // Names are not identity: the power layer caches a report under a key
  // that a renamed copy shares.
  for (const Circuit& a : {loop_circuit(), random_aig(3)}) {
    const Circuit b = renamed_copy(a);
    ASSERT_NE(a.node_name(0), b.node_name(0));
    EXPECT_EQ(structural_hash(a), structural_hash(b));
    EXPECT_EQ(exact_hash(a), exact_hash(b));
  }
}

TEST(ExactHash, ChangesWithOneFaninGateTypePiOrderOrPo) {
  const Circuit a = loop_circuit();
  const Circuit changed[] = {
      loop_circuit({.rewire = true}),
      loop_circuit({.gate = GateType::kOr}),
      loop_circuit({.swap_pis = true}),
      loop_circuit({.extra_po = true}),
  };
  for (const Circuit& b : changed) {
    ASSERT_EQ(a.num_nodes(), b.num_nodes());
    EXPECT_NE(exact_hash(a), exact_hash(b));
  }
}

// ---- generic sharded LRU ---------------------------------------------------

struct IntKey {
  std::uint64_t v = 0;
  std::uint64_t hash64() const { return hash_mix(0x1234, v); }
  bool operator==(const IntKey& o) const { return v == o.v; }
};

TEST(ShardedLruCache, EvictsLeastRecentlyUsed) {
  ShardedLruCache<IntKey, int> cache(/*capacity=*/4, /*num_shards=*/1);
  for (std::uint64_t i = 0; i < 4; ++i)
    cache.put(IntKey{i}, std::make_shared<int>(static_cast<int>(i)));
  // Touch 0 so 1 becomes the LRU victim.
  EXPECT_NE(cache.get(IntKey{0}), nullptr);
  cache.put(IntKey{99}, std::make_shared<int>(99));
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.get(IntKey{1}), nullptr);  // evicted
  EXPECT_NE(cache.get(IntKey{0}), nullptr);  // survived (recently used)
  EXPECT_NE(cache.get(IntKey{99}), nullptr);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(ShardedLruCache, PutOverwritesExistingKey) {
  ShardedLruCache<IntKey, int> cache(4, 1);
  cache.put(IntKey{7}, std::make_shared<int>(1));
  cache.put(IntKey{7}, std::make_shared<int>(2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.get(IntKey{7}), 2);
}

TEST(ShardedLruCache, CountsHitsAndMisses) {
  ShardedLruCache<IntKey, int> cache(8, 2);
  EXPECT_EQ(cache.get(IntKey{1}), nullptr);
  cache.put(IntKey{1}, std::make_shared<int>(1));
  EXPECT_NE(cache.get(IntKey{1}), nullptr);
  const CacheCounters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.5);
}

TEST(ShardedLruCache, ConcurrentHitsReturnConsistentValues) {
  ShardedLruCache<IntKey, std::uint64_t> cache(64, 8);
  constexpr std::uint64_t kKeys = 16;
  for (std::uint64_t i = 0; i < kKeys; ++i)
    cache.put(IntKey{i}, std::make_shared<std::uint64_t>(i * 1000));

  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &bad, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t k = rng.uniform_index(kKeys);
        auto v = cache.get_or_build(
            IntKey{k}, [k] { return std::make_shared<std::uint64_t>(k * 1000); });
        if (!v || *v != k * 1000) ++bad;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(cache.counters().hits + cache.counters().misses, 4u * 2000u);
}

// ---- circuit cache facade --------------------------------------------------

/// Minimal backend state for cache-facade tests (the real serving layer
/// stores api::DeepSeqState / api::PaceState here).
struct TestState final : api::BackendState {
  int tag = 0;
};

TEST(CircuitCache, IdenticalCircuitSharesPermutedDoesNot) {
  CircuitCache cache;
  const Circuit a = random_aig(3);
  // Same netlist "parsed again": identical creation order, shares the entry.
  const Circuit a2 = a;
  // Isomorphic but renumbered: node-indexed cached structures/embeddings
  // would be wrong for it, so it must get its own entry.
  const Circuit b = permute_node_ids(a, 17);

  const std::uint64_t backend_fp = 0xB1;
  const StructureKey key_a{structural_hash(a), exact_hash(a), backend_fp};
  const StructureKey key_a2{structural_hash(a2), exact_hash(a2), backend_fp};
  const StructureKey key_b{structural_hash(b), exact_hash(b), backend_fp};
  EXPECT_EQ(key_a, key_a2);
  EXPECT_EQ(key_a.hash, key_b.hash);  // structural identity matches...
  EXPECT_FALSE(key_a == key_b);       // ...but the exact digest differs
  // A differently-configured backend never shares state entries.
  StructureKey key_other_backend = key_a;
  key_other_backend.backend = 0xB2;
  EXPECT_FALSE(key_a == key_other_backend);

  int builds = 0;
  auto builder = [&] {
    ++builds;
    auto s = std::make_shared<TestState>();
    s->tag = builds;
    return s;
  };
  auto s1 = cache.get_or_build_structure(key_a, builder);
  auto s2 = cache.get_or_build_structure(key_a2, builder);  // hit
  auto s3 = cache.get_or_build_structure(key_b, builder);   // distinct entry
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_NE(s1.get(), s3.get());
  EXPECT_EQ(cache.stats().structures.hits, 1u);
  EXPECT_EQ(cache.stats().structures.misses, 2u);
}

TEST(CircuitCache, EmbeddingLayerKeyedByAllInputs) {
  CircuitCache cache;
  const StructuralHash h = structural_hash(random_aig(4));
  EmbeddingKey base;
  base.structure = h;
  base.backend_fingerprint = 11;
  base.workload_fingerprint = 22;
  base.init_seed = 33;
  cache.put_embedding(base, std::make_shared<nn::Tensor>(2, 2));
  EXPECT_NE(cache.get_embedding(base), nullptr);

  EmbeddingKey other = base;
  other.init_seed = 34;
  EXPECT_EQ(cache.get_embedding(other), nullptr);
  other = base;
  other.backend_fingerprint = 12;  // different backend identity
  EXPECT_EQ(cache.get_embedding(other), nullptr);
  other = base;
  other.workload_fingerprint = 23;
  EXPECT_EQ(cache.get_embedding(other), nullptr);
  other = base;
  other.exact = 99;  // isomorphic-but-renumbered circuit
  EXPECT_EQ(cache.get_embedding(other), nullptr);
}

TEST(CircuitCache, RegressionLayerSharesEmbeddingKey) {
  CircuitCache cache;
  EmbeddingKey key;
  key.structure = structural_hash(random_aig(5));
  key.backend_fingerprint = 7;
  key.workload_fingerprint = 9;
  key.init_seed = 3;

  EXPECT_EQ(cache.get_regression(key), nullptr);
  int builds = 0;
  auto build = [&] {
    ++builds;
    auto reg = std::make_shared<api::Regression>();
    reg->tr = nn::Tensor(4, 2);
    reg->lg = nn::Tensor(4, 1);
    return reg;
  };
  auto first = cache.get_or_build_regression(key, build);
  auto second = cache.get_or_build_regression(key, build);
  EXPECT_EQ(builds, 1);  // warm hit skips the head forward
  EXPECT_EQ(first.get(), second.get());

  // Any embedding-key component change misses (new workload, seed, ...).
  EmbeddingKey other = key;
  other.init_seed = 4;
  EXPECT_EQ(cache.get_regression(other), nullptr);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.regressions.hits, 1u);
  EXPECT_EQ(stats.regressions.misses, 3u);  // initial get + build + other
  EXPECT_EQ(stats.regression_entries, 1u);
}

TEST(WorkloadFingerprint, DiscriminatesProbabilitiesAndSeed) {
  Workload a;
  a.pi_prob = {0.25, 0.5};
  a.pattern_seed = 1;
  Workload b = a;
  EXPECT_EQ(workload_fingerprint(a), workload_fingerprint(b));
  b.pi_prob[1] = 0.5000001;
  EXPECT_NE(workload_fingerprint(a), workload_fingerprint(b));
  b = a;
  b.pattern_seed = 2;
  EXPECT_NE(workload_fingerprint(a), workload_fingerprint(b));
}

}  // namespace
}  // namespace deepseq::runtime
