// Shard-routing tests (the placement half of the serving tier): isomorphic
// circuits — node ids permuted, everything renamed — always land on the
// same shard, the routing function is pinned so it stays stable across
// processes and releases, the identity a caller hands to submit() routes
// the request and keys the shard's caches, per-shard caches are isolated,
// and a coordinated reload_all flips every shard's fingerprint with zero
// dropped in-flight tasks.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/backends.hpp"
#include "artifact/model_io.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dataset/generator.hpp"
#include "netlist/structural_hash.hpp"
#include "serve/router.hpp"
#include "sim/workload.hpp"

namespace deepseq::serve {
namespace {

std::shared_ptr<const Circuit> shared_aig(std::uint64_t seed,
                                          int num_gates = 40) {
  Rng rng(seed);
  GeneratorSpec spec;
  spec.num_pis = 5;
  spec.num_ffs = 3;
  spec.num_gates = num_gates;
  for (int t = 0; t < kNumGateTypes; ++t) spec.gate_weights[t] = 0.0;
  spec.gate_weights[static_cast<int>(GateType::kAnd)] = 4.0;
  spec.gate_weights[static_cast<int>(GateType::kNot)] = 2.0;
  return std::make_shared<const Circuit>(generate_circuit(spec, rng));
}

/// An isomorphic copy with permuted node ids and every name changed. The
/// structural hash mixes PI/FF/PO interface ordinals (workloads and outputs
/// are positional), so the copy preserves each list's RELATIVE order — but
/// the node id assignment is scrambled: FFs first, then PIs, then gates in
/// reverse id order, fanins wired afterwards through set_fanin.
Circuit permute_isomorphic(const Circuit& c) {
  Circuit out(c.name());
  std::vector<NodeId> map(c.num_nodes(), kNullNode);
  for (NodeId id : c.ffs())
    map[id] = out.add_ff(kNullNode, "r" + std::to_string(id));
  for (NodeId id : c.pis())
    map[id] = out.add_pi("r" + std::to_string(id));
  for (NodeId id = static_cast<NodeId>(c.num_nodes()); id-- > 0;) {
    if (c.type(id) == GateType::kPi || c.type(id) == GateType::kFf) continue;
    const std::vector<NodeId> placeholders(
        static_cast<std::size_t>(c.num_fanins(id)), kNullNode);
    map[id] = out.add_gate(c.type(id), placeholders, "r" + std::to_string(id));
  }
  for (NodeId id = 0; id < c.num_nodes(); ++id)
    for (int s = 0; s < c.num_fanins(id); ++s)
      out.set_fanin(map[id], s, map[c.fanin(id, s)]);
  for (std::size_t k = 0; k < c.pos().size(); ++k)
    out.add_po(map[c.pos()[k]], "rpo" + std::to_string(k));
  out.validate();
  return out;
}

RouterConfig small_router(int shards, int workers = 1) {
  RouterConfig cfg;
  cfg.shards = shards;
  cfg.workers_per_shard = workers;
  cfg.session.backends.model = ModelConfig::deepseq(/*hidden=*/8, /*t=*/2);
  return cfg;
}

api::TaskRequest embedding_request(std::shared_ptr<const Circuit> circuit,
                                   std::uint64_t workload_seed = 9) {
  Rng rng(workload_seed);
  api::TaskRequest req;
  req.workload = random_workload(*circuit, rng);
  req.circuit = std::move(circuit);
  req.task = api::TaskKind::kEmbedding;
  req.init_seed = 7;
  return req;
}

/// submit() with the circuit's identity computed here (as the server's
/// circuit memo does) and the callback turned into a future.
std::future<RoutedOutcome> route(ShardRouter& router, api::TaskRequest req,
                                 std::uint64_t deadline_ns = 0) {
  const CircuitIdentity identity = req.circuit != nullptr
                                       ? circuit_identity(*req.circuit)
                                       : CircuitIdentity{};
  auto promise = std::make_shared<std::promise<RoutedOutcome>>();
  std::future<RoutedOutcome> fut = promise->get_future();
  router.submit(std::move(req), identity, deadline_ns,
                [promise](RoutedOutcome&& out) {
                  promise->set_value(std::move(out));
                });
  return fut;
}

/// A fresh copy of `c`, as a server decodes one per new section: equal
/// node arrays, never the same object.
std::shared_ptr<const Circuit> fresh_copy(const Circuit& c) {
  return std::make_shared<const Circuit>(c);
}

TEST(ServeRouter, IsomorphicCircuitsRouteToTheSameShard) {
  const RouterConfig cfg = small_router(/*shards=*/5);
  ShardRouter router(cfg);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto original = shared_aig(seed);
    const Circuit permuted = permute_isomorphic(*original);
    // The permutation is real: ids actually moved (creation-order hash
    // differs) while the structure hash is unchanged.
    ASSERT_EQ(structural_hash(permuted), structural_hash(*original));
    ASSERT_NE(exact_hash(permuted), exact_hash(*original)) << "seed " << seed;
    EXPECT_EQ(router.shard_for(structural_hash(permuted)),
              router.shard_for(structural_hash(*original)))
        << "seed " << seed;
  }
}

// Pin the routing function itself: shard_for depends only on the structural
// hash and the shard count, and these literals must never drift — a fleet
// front end rebuilt years later has to compute the same placement.
TEST(ServeRouter, RoutingFunctionIsPinnedForever) {
  StructuralHash a;
  a.digest = 0x0123456789abcdefULL;
  a.num_nodes = 100;
  a.num_ffs = 7;
  StructuralHash b;
  b.digest = 0xfeedfacecafebeefULL;
  b.num_nodes = 33;
  b.num_ffs = 2;

  ShardRouter five(small_router(5));
  EXPECT_EQ(five.shard_for(a), 1);
  EXPECT_EQ(five.shard_for(b), 4);
  ShardRouter four(small_router(4));
  EXPECT_EQ(four.shard_for(a), 0);
  EXPECT_EQ(four.shard_for(b), 2);
}

TEST(ServeRouter, PlacementIsStableAcrossRestarts) {
  const RouterConfig cfg = small_router(/*shards=*/4);
  std::vector<int> first;
  {
    ShardRouter router(cfg);
    for (std::uint64_t seed = 1; seed <= 10; ++seed)
      first.push_back(router.shard_for(structural_hash(*shared_aig(seed))));
  }
  ShardRouter restarted(cfg);
  for (std::uint64_t seed = 1; seed <= 10; ++seed)
    EXPECT_EQ(restarted.shard_for(structural_hash(*shared_aig(seed))),
              first[static_cast<std::size_t>(seed - 1)])
        << "seed " << seed;
}

TEST(ServeRouter, ServedResultMatchesDirectRunSyncBitForBit) {
  ShardRouter router(small_router(/*shards=*/3));
  const api::TaskRequest req = embedding_request(shared_aig(3));

  RoutedOutcome out = route(router, req).get();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.shard, router.shard_for(structural_hash(*req.circuit)));

  // A second submit of an equal copy: same shard, served from the first
  // submit's embedding, same bits.
  api::TaskRequest again = req;
  again.circuit = fresh_copy(*req.circuit);
  RoutedOutcome hit = route(router, again).get();
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.shard, out.shard);
  EXPECT_TRUE(std::get<api::TaskResult>(hit.value).embedding_cache_hit);

  // Reference: a fresh Session built from the identical preset.
  api::Session reference(small_router(1).session);
  const api::TaskResult want = reference.run_sync(req);
  const auto& ref = *want.as<api::EmbeddingOutput>().embedding;
  for (const RoutedOutcome* o : {&out, &hit}) {
    const api::TaskResult& served = std::get<api::TaskResult>(o->value);
    EXPECT_EQ(served.structure, want.structure);
    const auto& got = *served.as<api::EmbeddingOutput>().embedding;
    ASSERT_EQ(got.rows(), ref.rows());
    ASSERT_EQ(got.cols(), ref.cols());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), got.size() * sizeof(float)),
              0);
  }
}

TEST(ServeRouter, EqualCopiesShareOneEmbeddingAndARenumberedCopyGetsItsOwn) {
  ShardRouter router(small_router(/*shards=*/3));
  const auto original = shared_aig(4);
  constexpr int kSubmits = 5;

  std::vector<api::TaskResult> served;
  int shard = -1;
  for (int i = 0; i < kSubmits; ++i) {
    RoutedOutcome out =
        route(router, embedding_request(fresh_copy(*original))).get();
    ASSERT_TRUE(out.ok()) << "submit " << i;
    if (i > 0) {
      EXPECT_EQ(out.shard, shard);
    }
    shard = out.shard;
    served.push_back(std::get<api::TaskResult>(std::move(out.value)));
  }
  // The handed-down identity keys the shard's caches: every repeat is
  // served from the first request's embedding.
  for (std::size_t i = 1; i < served.size(); ++i) {
    EXPECT_TRUE(served[i].embedding_cache_hit) << "submit " << i;
    EXPECT_EQ(served[i].structure, served[0].structure);
  }

  // An isomorphic copy with other node ids is a different exact netlist: it
  // routes to the same shard and gets its own embedding.
  const auto renumbered =
      std::make_shared<const Circuit>(permute_isomorphic(*original));
  ASSERT_NE(exact_hash(*renumbered), exact_hash(*original));
  const api::TaskRequest req = embedding_request(renumbered);
  RoutedOutcome out = route(router, req).get();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.shard, shard);
  const api::TaskResult& got = std::get<api::TaskResult>(out.value);
  EXPECT_EQ(got.structure, served[0].structure);
  EXPECT_FALSE(got.embedding_cache_hit);
  api::Session reference(small_router(1).session);
  const nn::Tensor& want =
      *reference.run_sync(req).as<api::EmbeddingOutput>().embedding;
  const nn::Tensor& emb = *got.as<api::EmbeddingOutput>().embedding;
  ASSERT_EQ(emb.size(), want.size());
  EXPECT_EQ(std::memcmp(emb.data(), want.data(), emb.size() * sizeof(float)),
            0);
}

TEST(ServeRouter, ShardCachesAreIsolated) {
  ShardRouter router(small_router(/*shards=*/4));
  // Find a circuit and serve it twice: its shard warms up, every other
  // shard's cache stays untouched.
  const auto circuit = shared_aig(5);
  const int home = router.shard_for(structural_hash(*circuit));
  ASSERT_TRUE(route(router, embedding_request(circuit)).get().ok());
  ASSERT_TRUE(route(router, embedding_request(circuit)).get().ok());

  // The worker bumps `served` just AFTER delivering the result, so give the
  // final increment a bounded moment to land.
  for (int spin = 0; spin < 1000 && router.shard_stats(home).served < 2;
       ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  for (int s = 0; s < router.num_shards(); ++s) {
    const ShardRouter::ShardStats st = router.shard_stats(s);
    if (s == home) {
      EXPECT_EQ(st.served, 2u);
      // First request misses cold, second is served from the warm cache (a
      // warm embedding hit short-circuits the structure resolve).
      EXPECT_EQ(st.cache.embeddings.hits, 1u);
      EXPECT_EQ(st.cache.embeddings.misses, 1u);
      EXPECT_GE(st.cache.structures.misses, 1u);
    } else {
      EXPECT_EQ(st.served, 0u);
      EXPECT_EQ(st.cache.structures.hits + st.cache.structures.misses, 0u);
      EXPECT_EQ(st.cache.embeddings.hits + st.cache.embeddings.misses, 0u);
    }
  }
}

TEST(ServeRouter, ReloadAllFlipsEveryShardWithZeroDroppedTasks) {
  RouterConfig cfg = small_router(/*shards=*/3, /*workers=*/2);
  ShardRouter router(cfg);

  const std::uint64_t seed_fp = router.shard_fingerprint(0);
  for (int s = 1; s < router.num_shards(); ++s)
    ASSERT_EQ(router.shard_fingerprint(s), seed_fp);

  // In-flight load across every shard, submitted before (and racing) the
  // push. Every single future must resolve to a served result.
  std::vector<std::future<RoutedOutcome>> inflight;
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    inflight.push_back(route(router, embedding_request(shared_aig(seed))));

  const auto art = std::make_shared<const artifact::Artifact>(
      artifact::snapshot(DeepSeqModel(cfg.session.backends.model)));
  const std::uint64_t new_fp = router.reload_all(art);
  EXPECT_NE(new_fp, seed_fp);

  // Coordination: every shard now serves the SAME new fingerprint.
  for (int s = 0; s < router.num_shards(); ++s)
    EXPECT_EQ(router.shard_fingerprint(s), new_fp) << "shard " << s;

  // Zero dropped: everything in flight completed (drain-then-swap; nothing
  // was shed or failed by the push).
  for (std::size_t i = 0; i < inflight.size(); ++i) {
    RoutedOutcome out = inflight[i].get();
    EXPECT_TRUE(out.ok()) << "in-flight task " << i;
  }

  // Re-pushing the already-live artifact fails the Session no-op guard on
  // shard 0 before anything is flipped, and every shard keeps serving.
  EXPECT_THROW((void)router.reload_all(art), Error);
  for (int s = 0; s < router.num_shards(); ++s)
    EXPECT_EQ(router.shard_fingerprint(s), new_fp);
  EXPECT_THROW((void)router.reload_all(nullptr), Error);
}

TEST(ServeRouter, SubmitWithoutCircuitReportsExceptionOutcome) {
  ShardRouter router(small_router(1));
  api::TaskRequest req;  // no circuit
  RoutedOutcome out = route(router, std::move(req)).get();
  EXPECT_FALSE(out.ok());
  ASSERT_TRUE(std::holds_alternative<std::exception_ptr>(out.value));
  EXPECT_THROW(std::rethrow_exception(std::get<std::exception_ptr>(out.value)),
               Error);
}

TEST(ServeRouter, BadConfigThrows) {
  EXPECT_THROW(ShardRouter{small_router(0)}, Error);
  RouterConfig no_workers = small_router(1);
  no_workers.workers_per_shard = 0;
  EXPECT_THROW(ShardRouter{no_workers}, Error);
}

}  // namespace
}  // namespace deepseq::serve
