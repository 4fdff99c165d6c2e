#include "runtime/inference_engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "api/backends.hpp"
#include "common/error.hpp"
#include "dataset/embedded.hpp"
#include "dataset/generator.hpp"
#include "netlist/aig.hpp"
#include "netlist/topology.hpp"
#include "nn/graph.hpp"

namespace deepseq::runtime {
namespace {

ModelConfig small_model() { return ModelConfig::deepseq(/*hidden=*/12, /*t=*/2); }

PaceConfig small_pace() {
  PaceConfig cfg;
  cfg.hidden_dim = 12;
  cfg.layers = 2;
  return cfg;
}

/// Backend pair shared by a test: the engine owns no models, so tests own
/// the backend instances the requests point at.
struct Backends {
  api::DeepSeqBackend deepseq{small_model()};
  api::PaceBackend pace{small_pace()};
};

std::shared_ptr<const Circuit> shared_aig(std::uint64_t seed,
                                          int num_gates = 60) {
  Rng rng(seed);
  GeneratorSpec spec;
  spec.num_pis = 5;
  spec.num_ffs = 4;
  spec.num_gates = num_gates;
  for (int t = 0; t < kNumGateTypes; ++t) spec.gate_weights[t] = 0.0;
  spec.gate_weights[static_cast<int>(GateType::kAnd)] = 4.0;
  spec.gate_weights[static_cast<int>(GateType::kNot)] = 2.0;
  return std::make_shared<const Circuit>(generate_circuit(spec, rng));
}

bool bit_identical(const nn::Tensor& a, const nn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(InferenceEngine, ConcurrentRunSyncMatchesDirectModelCalls) {
  Backends backends;

  // Reference models built from the same presets: identical weights by
  // construction (deterministic seeds).
  const DeepSeqModel ref_model(small_model());
  const PaceEncoder ref_pace(small_pace());

  std::vector<std::shared_ptr<const Circuit>> circuits = {
      shared_aig(1), shared_aig(2),
      std::make_shared<const Circuit>(decompose_to_aig(iscas89_s27()).aig)};

  InferenceEngine engine(EngineConfig{});
  std::vector<EmbeddingRequest> requests;
  Rng rng(99);
  for (int i = 0; i < 24; ++i) {
    EmbeddingRequest r;
    r.circuit = circuits[i % circuits.size()];
    r.identity = circuit_identity(*r.circuit);
    r.workload = random_workload(*r.circuit, rng);
    r.backend = (i % 2 == 0)
                    ? static_cast<const api::EmbeddingBackend*>(&backends.deepseq)
                    : &backends.pace;
    r.init_seed = 1000 + static_cast<std::uint64_t>(i);
    requests.push_back(std::move(r));
  }

  // Four callers share one engine (its caches and structure builds), each
  // taking every fourth request.
  constexpr std::size_t kCallers = 4;
  std::vector<EmbeddingResult> results(requests.size());
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (std::size_t i = t; i < requests.size(); i += kCallers)
        results[i] = engine.run_sync(requests[i]);
    });
  }
  for (std::thread& c : callers) c.join();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const EmbeddingRequest& r = requests[i];
    nn::Graph g(false);
    nn::Tensor want;
    if (r.backend == &backends.pace) {
      const PaceGraph pg = build_pace_graph(*r.circuit, small_pace());
      want = ref_pace.embed(g, pg, r.workload, r.init_seed)->value;
    } else {
      const CircuitGraph cg = build_circuit_graph(*r.circuit);
      want = ref_model.embed(g, cg, r.workload, r.init_seed)->value;
    }
    ASSERT_NE(results[i].embedding, nullptr) << "request " << i;
    EXPECT_TRUE(bit_identical(*results[i].embedding, want)) << "request " << i;
  }
}

TEST(InferenceEngine, RepeatRequestHitsEmbeddingCache) {
  Backends backends;
  InferenceEngine engine(EngineConfig{});
  auto circuit = shared_aig(6);
  Rng rng(8);
  EmbeddingRequest r;
  r.circuit = circuit;
  r.identity = circuit_identity(*circuit);
  r.workload = random_workload(*circuit, rng);
  r.backend = &backends.deepseq;
  r.init_seed = 3;

  const EmbeddingResult first = engine.run_sync(r);
  EXPECT_FALSE(first.embedding_cache_hit);
  const EmbeddingResult second = engine.run_sync(r);
  EXPECT_TRUE(second.embedding_cache_hit);
  EXPECT_EQ(first.embedding.get(), second.embedding.get());  // shared entry
  EXPECT_GE(engine.cache_stats().embeddings.hits, 1u);
}

TEST(InferenceEngine, BackendsDoNotShareCacheEntries) {
  // Same circuit + workload + seed through two different backends: the
  // fingerprints differ, so each gets its own structure and embedding
  // entries (no cross-backend aliasing).
  Backends backends;
  ASSERT_NE(backends.deepseq.info().fingerprint,
            backends.pace.info().fingerprint);
  InferenceEngine engine(EngineConfig{});
  auto circuit = shared_aig(14);
  Rng rng(15);
  EmbeddingRequest r;
  r.circuit = circuit;
  r.identity = circuit_identity(*circuit);
  r.workload = random_workload(*circuit, rng);
  r.backend = &backends.deepseq;

  const EmbeddingResult via_deepseq = engine.run_sync(r);
  r.backend = &backends.pace;
  const EmbeddingResult via_pace = engine.run_sync(r);
  EXPECT_FALSE(via_pace.embedding_cache_hit);
  EXPECT_FALSE(via_pace.structure_cache_hit);
  EXPECT_FALSE(bit_identical(*via_deepseq.embedding, *via_pace.embedding));
  EXPECT_EQ(engine.cache_stats().structures.misses, 2u);
}

TEST(InferenceEngine, StructureSharedAcrossWorkloads) {
  Backends backends;
  InferenceEngine engine(EngineConfig{});
  auto circuit = shared_aig(7);
  Rng rng(9);
  for (int i = 0; i < 4; ++i) {
    EmbeddingRequest r;
    r.circuit = circuit;
    r.identity = circuit_identity(*circuit);
    r.workload = random_workload(*circuit, rng);  // distinct workloads
    r.backend = &backends.deepseq;
    r.init_seed = static_cast<std::uint64_t>(i);
    (void)engine.run_sync(r);
  }
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.structures.misses, 1u);  // built once
  EXPECT_EQ(stats.structures.hits, 3u);
  EXPECT_EQ(stats.embeddings.hits, 0u);  // all-new workloads: no reuse
}

TEST(InferenceEngine, StateOnlyRequestSkipsForwardPass) {
  Backends backends;
  InferenceEngine engine(EngineConfig{});
  auto circuit = shared_aig(16);
  Rng rng(17);
  EmbeddingRequest r;
  r.circuit = circuit;
  r.identity = circuit_identity(*circuit);
  r.workload = random_workload(*circuit, rng);
  r.backend = &backends.deepseq;
  r.want_embedding = false;
  r.want_state = true;

  const EmbeddingResult res = engine.run_sync(r);
  EXPECT_EQ(res.embedding, nullptr);
  ASSERT_NE(res.state, nullptr);
  const auto* state = dynamic_cast<const api::DeepSeqState*>(res.state.get());
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->graph.num_nodes, static_cast<int>(circuit->num_nodes()));
  EXPECT_EQ(engine.cache_stats().embeddings.misses, 0u);  // never consulted
}

/// Rebuild `c` with reversed per-level gate creation order: isomorphic
/// (same structural hash) but different node ids.
Circuit renumber(const Circuit& c) {
  Circuit out(c.name());
  std::vector<NodeId> map(c.num_nodes(), kNullNode);
  for (NodeId pi : c.pis()) map[pi] = out.add_pi();
  for (NodeId ff : c.ffs()) map[ff] = out.add_ff();
  for (const auto& level : comb_levelize(c).by_level) {
    for (auto it = level.rbegin(); it != level.rend(); ++it) {
      const NodeId v = *it;
      if (map[v] != kNullNode) continue;
      std::vector<NodeId> fanins;
      for (int i = 0; i < c.num_fanins(v); ++i)
        fanins.push_back(map[c.fanin(v, i)]);
      map[v] = out.add_gate(c.type(v), fanins);
    }
  }
  for (std::size_t k = 0; k < c.ffs().size(); ++k)
    out.set_fanin(out.ffs()[k], 0, map[c.fanin(c.ffs()[k], 0)]);
  for (NodeId po : c.pos()) out.add_po(map[po]);
  return out;
}

TEST(InferenceEngine, IsomorphicRenumberedCircuitGetsItsOwnEmbedding) {
  Backends backends;
  InferenceEngine engine(EngineConfig{});
  auto a = shared_aig(20);
  auto b = std::make_shared<const Circuit>(renumber(*a));
  ASSERT_EQ(structural_hash(*a), structural_hash(*b));
  ASSERT_NE(exact_hash(*a), exact_hash(*b));

  Rng rng(21);
  Workload w = random_workload(*a, rng);
  EmbeddingRequest ra;
  ra.circuit = a;
  ra.identity = circuit_identity(*a);
  ra.workload = w;
  ra.backend = &backends.deepseq;
  ra.init_seed = 5;
  EmbeddingRequest rb = ra;
  rb.circuit = b;
  rb.identity = circuit_identity(*b);

  (void)engine.run_sync(ra);  // warms the cache with a's node-indexed rows
  const EmbeddingResult got_b = engine.run_sync(rb);
  EXPECT_FALSE(got_b.embedding_cache_hit);  // must NOT reuse a's entry

  const DeepSeqModel ref(small_model());
  nn::Graph g(false);
  const nn::Tensor want =
      ref.embed(g, build_circuit_graph(*b), w, 5)->value;
  EXPECT_TRUE(bit_identical(*got_b.embedding, want));
}

TEST(InferenceEngine, WorkloadMismatchThrows) {
  Backends backends;
  InferenceEngine engine(EngineConfig{});
  EmbeddingRequest r;
  r.circuit = shared_aig(11);
  r.identity = circuit_identity(*r.circuit);
  r.workload.pi_prob = {0.5};  // wrong PI count
  r.backend = &backends.deepseq;
  EXPECT_THROW((void)engine.run_sync(r), Error);
}

TEST(InferenceEngine, IdentityThatDoesNotDescribeTheCircuitThrows) {
  Backends backends;
  InferenceEngine engine(EngineConfig{});
  EmbeddingRequest r;
  r.circuit = shared_aig(11);
  Rng rng(12);
  r.workload = random_workload(*r.circuit, rng);
  r.backend = &backends.deepseq;
  // Left default: the engine hashes nothing, so it must refuse rather than
  // key the caches on an all-zero identity.
  EXPECT_THROW((void)engine.run_sync(r), Error);
  // Another circuit's identity fails the count check too.
  r.identity = circuit_identity(*shared_aig(11, /*num_gates=*/61));
  EXPECT_THROW((void)engine.run_sync(r), Error);
  r.identity = circuit_identity(*r.circuit);
  EXPECT_NO_THROW((void)engine.run_sync(r));
}

TEST(InferenceEngine, MissingBackendThrows) {
  InferenceEngine engine(EngineConfig{});
  EmbeddingRequest r;
  r.circuit = shared_aig(11);
  r.identity = circuit_identity(*r.circuit);
  Rng rng(12);
  r.workload = random_workload(*r.circuit, rng);  // backend left null
  EXPECT_THROW((void)engine.run_sync(r), Error);
}

TEST(InferenceEngine, MissingCircuitThrows) {
  Backends backends;
  InferenceEngine engine(EngineConfig{});
  EmbeddingRequest r;
  r.backend = &backends.deepseq;  // circuit left null
  EXPECT_THROW((void)engine.run_sync(r), Error);
}

TEST(InferenceEngine, ComputeTimeIsPopulated) {
  Backends backends;
  InferenceEngine engine(EngineConfig{});
  auto circuit = shared_aig(12);
  Rng rng(13);
  EmbeddingRequest r;
  r.circuit = circuit;
  r.identity = circuit_identity(*circuit);
  r.workload = random_workload(*circuit, rng);
  r.backend = &backends.deepseq;
  EXPECT_GT(engine.run_sync(r).compute_ms, 0.0);
}

}  // namespace
}  // namespace deepseq::runtime
