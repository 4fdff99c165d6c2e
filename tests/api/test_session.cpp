#include "api/session.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/backends.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dataset/embedded.hpp"
#include "dataset/generator.hpp"
#include "netlist/aig.hpp"
#include "netlist/scoap.hpp"
#include "netlist/structural_hash.hpp"
#include "nn/graph.hpp"
#include "power/pipeline.hpp"
#include "reliability/reliability_model.hpp"

namespace deepseq::api {
namespace {

ModelConfig small_model() { return ModelConfig::deepseq(/*hidden=*/12, /*t=*/2); }

PaceConfig small_pace() {
  PaceConfig cfg;
  cfg.hidden_dim = 12;
  cfg.layers = 2;
  return cfg;
}

SessionConfig small_session() {
  SessionConfig cfg;
  cfg.backends.model = small_model();
  cfg.backends.pace = small_pace();
  return cfg;
}

std::shared_ptr<const Circuit> shared_aig(std::uint64_t seed) {
  Rng rng(seed);
  GeneratorSpec spec;
  spec.num_pis = 5;
  spec.num_ffs = 4;
  spec.num_gates = 60;
  for (int t = 0; t < kNumGateTypes; ++t) spec.gate_weights[t] = 0.0;
  spec.gate_weights[static_cast<int>(GateType::kAnd)] = 4.0;
  spec.gate_weights[static_cast<int>(GateType::kNot)] = 2.0;
  return std::make_shared<const Circuit>(generate_circuit(spec, rng));
}

bool bit_identical(const nn::Tensor& a, const nn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TaskRequest make_request(std::shared_ptr<const Circuit> circuit, TaskKind task,
                         std::uint64_t workload_seed = 9,
                         std::uint64_t init_seed = 7) {
  Rng rng(workload_seed);
  TaskRequest req;
  req.workload = random_workload(*circuit, rng);
  req.circuit = std::move(circuit);
  req.task = task;
  req.init_seed = init_seed;
  return req;
}

// ---- parity suite: Session results vs direct pipeline calls ----------------
//
// Every task served through the Session must be bit-identical to calling
// the underlying model / power / reliability / SCOAP pipeline directly on
// the same circuit + workload + seed (the engines are deterministic, and
// the serving layer must add nothing but scheduling).

TEST(SessionParity, EmbeddingMatchesDirectModelCall) {
  Session session(small_session());
  const auto circuit = shared_aig(1);
  const TaskRequest req = make_request(circuit, TaskKind::kEmbedding);

  const TaskResult res = session.run_sync(req);
  EXPECT_EQ(res.backend, "deepseq");

  const DeepSeqModel ref(small_model());
  nn::Graph g(false);
  const nn::Tensor want =
      ref.embed(g, build_circuit_graph(*circuit), req.workload, req.init_seed)
          ->value;
  EXPECT_TRUE(bit_identical(*res.as<EmbeddingOutput>().embedding, want));
}

TEST(SessionParity, PaceEmbeddingMatchesDirectEncoderCall) {
  Session session(small_session());
  const auto circuit = shared_aig(2);
  TaskRequest req = make_request(circuit, TaskKind::kEmbedding);
  req.backend = "pace";

  const TaskResult res = session.run_sync(req);
  EXPECT_EQ(res.backend, "pace");

  const PaceEncoder ref(small_pace());
  nn::Graph g(false);
  const nn::Tensor want =
      ref.embed(g, build_pace_graph(*circuit, small_pace()), req.workload,
                req.init_seed)
          ->value;
  EXPECT_TRUE(bit_identical(*res.as<EmbeddingOutput>().embedding, want));
}

TEST(SessionParity, ProbabilityTasksMatchDirectRegressHeads) {
  Session session(small_session());
  const auto circuit = shared_aig(3);

  const TaskResult lg =
      session.run_sync(make_request(circuit, TaskKind::kLogicProb));
  const TaskResult tr =
      session.run_sync(make_request(circuit, TaskKind::kTransitionProb));

  const DeepSeqModel ref(small_model());
  const TaskRequest req = make_request(circuit, TaskKind::kLogicProb);
  nn::Graph g(false);
  const auto out = ref.regress(
      g, ref.embed(g, build_circuit_graph(*circuit), req.workload,
                   req.init_seed));
  EXPECT_TRUE(bit_identical(*lg.as<LogicProbOutput>().prob, out.lg->value));
  EXPECT_TRUE(
      bit_identical(*tr.as<TransitionProbOutput>().prob, out.tr->value));
}

TEST(SessionParity, PowerMatchesDirectPipelineCall) {
  SessionConfig cfg = small_session();
  Session session(cfg);
  const auto circuit = shared_aig(4);
  const TaskRequest req = make_request(circuit, TaskKind::kPower);

  const TaskResult res = session.run_sync(req);
  const auto& out = res.as<PowerOutput>();

  // Direct path: regress heads -> per-node activity -> the power pipeline's
  // SAIF + analyzer artifact flow.
  const DeepSeqModel ref(small_model());
  nn::Graph g(false);
  const auto pred = ref.regress(
      g, ref.embed(g, build_circuit_graph(*circuit), req.workload,
                   req.init_seed));
  const std::size_t n = circuit->num_nodes();
  std::vector<double> logic1(n), rate(n);
  for (std::size_t v = 0; v < n; ++v) {
    const int row = static_cast<int>(v);
    logic1[v] = pred.lg->value.at(row, 0);
    rate[v] = pred.tr->value.at(row, 0) + pred.tr->value.at(row, 1);
  }
  const PowerReport want =
      power_from_activity(*circuit, logic1, rate, cfg.power_duration);

  EXPECT_EQ(out.logic1, logic1);
  EXPECT_EQ(out.toggle_rate, rate);
  EXPECT_EQ(out.report.total_watts, want.total_watts);  // bit-identical
  EXPECT_EQ(out.report.combinational_watts, want.combinational_watts);
  EXPECT_EQ(out.report.sequential_watts, want.sequential_watts);
  EXPECT_EQ(out.report.nets_matched, want.nets_matched);
  EXPECT_EQ(out.report.nets_missing, 0u);
}

TEST(SessionParity, ReliabilityMatchesDirectModelEstimate) {
  Session session(small_session());
  const auto circuit = shared_aig(5);
  const TaskRequest req = make_request(circuit, TaskKind::kReliability);

  const TaskResult res = session.run_sync(req);
  const auto& out = res.as<ReliabilityOutput>();

  const DeepSeqModel ref(small_model());
  const ReliabilityModel ref_rel(ref);
  const auto want = ref_rel.estimate(
      build_circuit_graph(*circuit), req.workload,
      std::vector<NodeId>(circuit->pos().begin(), circuit->pos().end()),
      req.init_seed);
  EXPECT_EQ(out.circuit_reliability, want.circuit_reliability);
  EXPECT_EQ(out.node_reliability, want.node_reliability);
}

TEST(SessionParity, TestabilityMatchesDirectScoapCall) {
  Session session(small_session());
  const auto circuit =
      std::make_shared<const Circuit>(decompose_to_aig(iscas89_s27()).aig);

  const TaskResult res =
      session.run_sync(make_request(circuit, TaskKind::kTestability));
  const auto& out = res.as<TestabilityOutput>();

  const ScoapMeasures want = compute_scoap(*circuit);
  EXPECT_EQ(out.scoap.cc0, want.cc0);
  EXPECT_EQ(out.scoap.cc1, want.cc1);
  EXPECT_EQ(out.scoap.co, want.co);

  // Testability reads the circuit alone: no backend prepare, no forward
  // pass — the caches are never touched.
  const auto stats = session.cache_stats();
  EXPECT_EQ(stats.structures.misses, 0u);
  EXPECT_EQ(stats.embeddings.misses, 0u);
}

// ---- serving behaviour ------------------------------------------------------

TEST(Session, TasksShareOneStructureResolve) {
  Session session(small_session());
  const auto circuit = shared_aig(7);

  for (const TaskKind task :
       {TaskKind::kEmbedding, TaskKind::kLogicProb, TaskKind::kTransitionProb,
        TaskKind::kPower, TaskKind::kReliability})
    (void)session.run_sync(make_request(circuit, task));

  const auto stats = session.cache_stats();
  EXPECT_EQ(stats.structures.misses, 1u);  // one prepare served every task
  // One forward pass fed all embedding-consuming tasks.
  EXPECT_EQ(stats.embeddings.misses, 1u);
  EXPECT_GE(stats.embeddings.hits, 3u);
}

TEST(Session, UnsupportedTaskFailsFastWithClearError) {
  Session session(small_session());
  TaskRequest req = make_request(shared_aig(8), TaskKind::kLogicProb);
  req.backend = "pace";
  try {
    (void)session.run_sync(req);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("pace"), std::string::npos) << msg;
    EXPECT_NE(msg.find("regress"), std::string::npos) << msg;
  }

  TaskRequest rel = make_request(shared_aig(8), TaskKind::kReliability);
  rel.backend = "pace";
  EXPECT_THROW((void)session.run_sync(rel), Error);
}

TEST(Session, UnknownBackendNameFailsFast) {
  Session session(small_session());
  TaskRequest req = make_request(shared_aig(9), TaskKind::kEmbedding);
  req.backend = "no-such-backend";
  EXPECT_THROW((void)session.run_sync(req), Error);

  SessionConfig bad = small_session();
  bad.backend = "also-missing";
  EXPECT_THROW(Session{bad}, Error);
}

TEST(Session, ComputeErrorsThrowFromRunSync) {
  Session session(small_session());
  TaskRequest req;
  req.circuit = shared_aig(10);
  req.workload.pi_prob = {0.5};  // wrong PI count
  req.task = TaskKind::kEmbedding;
  EXPECT_THROW((void)session.run_sync(req), Error);
}

TEST(Session, ResultCarriesTaskMetadata) {
  Session session(small_session());
  const auto circuit = shared_aig(11);
  const TaskResult res =
      session.run_sync(make_request(circuit, TaskKind::kEmbedding));
  EXPECT_EQ(res.task, TaskKind::kEmbedding);
  EXPECT_EQ(res.backend, "deepseq");
  EXPECT_EQ(res.structure, structural_hash(*circuit));
  EXPECT_FALSE(res.embedding_cache_hit);
  EXPECT_EQ(res.queue_ms, 0.0);  // computed on the caller: no queue
  EXPECT_EQ(res.total_ms, res.compute_ms);
  // Wrong-type access throws.
  EXPECT_THROW((void)res.as<PowerOutput>(), std::bad_variant_access);
}

TEST(Session, WarmProbabilityTrafficSkipsRegressionHeads) {
  Session session(small_session());
  const auto circuit = shared_aig(17);
  const TaskRequest req = make_request(circuit, TaskKind::kLogicProb);

  const TaskResult cold = session.run_sync(req);
  EXPECT_FALSE(cold.regression_cache_hit);

  // Same circuit + workload + seed: embedding AND regression heads both
  // served from cache, outputs bit-identical to the cold pass.
  const TaskResult warm = session.run_sync(req);
  EXPECT_TRUE(warm.embedding_cache_hit);
  EXPECT_TRUE(warm.regression_cache_hit);
  EXPECT_TRUE(bit_identical(*cold.as<LogicProbOutput>().prob,
                            *warm.as<LogicProbOutput>().prob));

  // The transition-prob task shares the same cached Regression entry.
  const TaskResult tr =
      session.run_sync(make_request(circuit, TaskKind::kTransitionProb));
  EXPECT_TRUE(tr.regression_cache_hit);

  const auto stats = session.cache_stats();
  EXPECT_GE(stats.regressions.hits, 2u);

  // A different workload misses both layers.
  const TaskResult other = session.run_sync(
      make_request(circuit, TaskKind::kLogicProb, /*workload_seed=*/21));
  EXPECT_FALSE(other.embedding_cache_hit);
  EXPECT_FALSE(other.regression_cache_hit);
}

// ---- task-head caches: power reports and SCOAP measures ---------------------

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_report(const PowerReport& a, const PowerReport& b) {
  return bits_equal(a.total_watts, b.total_watts) &&
         bits_equal(a.combinational_watts, b.combinational_watts) &&
         bits_equal(a.sequential_watts, b.sequential_watts) &&
         bits_equal(a.io_watts, b.io_watts) &&
         a.nets_matched == b.nets_matched && a.nets_missing == b.nets_missing;
}

bool same_power(const TaskResult& a, const TaskResult& b) {
  const auto& x = a.as<PowerOutput>();
  const auto& y = b.as<PowerOutput>();
  return same_report(x.report, y.report) && x.logic1 == y.logic1 &&
         x.toggle_rate == y.toggle_rate;
}

bool same_scoap(const ScoapMeasures& a, const ScoapMeasures& b) {
  return a.cc0 == b.cc0 && a.cc1 == b.cc1 && a.co == b.co &&
         a.controllability_iterations == b.controllability_iterations &&
         a.observability_iterations == b.observability_iterations;
}

/// An isomorphic copy of `c` under other node ids: FFs first, then PIs,
/// then gates in reverse id order. Interface lists keep their relative
/// order, so the structural hash is unchanged and the exact hash is not.
Circuit renumbered(const Circuit& c) {
  Circuit out(c.name());
  std::vector<NodeId> map(c.num_nodes(), kNullNode);
  for (NodeId id : c.ffs()) map[id] = out.add_ff(kNullNode, c.node_name(id));
  for (NodeId id : c.pis()) map[id] = out.add_pi(c.node_name(id));
  for (NodeId id = static_cast<NodeId>(c.num_nodes()); id-- > 0;) {
    if (c.type(id) == GateType::kPi || c.type(id) == GateType::kFf) continue;
    map[id] = out.add_gate(
        c.type(id),
        std::vector<NodeId>(static_cast<std::size_t>(c.num_fanins(id)),
                            kNullNode),
        c.node_name(id));
  }
  for (NodeId id = 0; id < c.num_nodes(); ++id)
    for (int s = 0; s < c.num_fanins(id); ++s)
      out.set_fanin(map[id], s, map[c.fanin(id, s)]);
  for (std::size_t k = 0; k < c.pos().size(); ++k)
    out.add_po(map[c.pos()[k]], c.po_name(k));
  return out;
}

TEST(Session, WarmPowerAndTestabilityComeFromTheHeadCaches) {
  Session session(small_session());
  const auto circuit = shared_aig(23);
  const TaskRequest power = make_request(circuit, TaskKind::kPower);
  const TaskRequest test = make_request(circuit, TaskKind::kTestability);

  const TaskResult cold_power = session.run_sync(power);
  const TaskResult cold_test = session.run_sync(test);
  EXPECT_FALSE(cold_power.regression_cache_hit);
  auto stats = session.cache_stats();
  EXPECT_EQ(stats.powers.misses, 1u);
  EXPECT_EQ(stats.scoaps.misses, 1u);
  EXPECT_EQ(stats.powers.hits + stats.scoaps.hits, 0u);

  const TaskResult warm_power = session.run_sync(power);
  const TaskResult warm_test = session.run_sync(test);
  // The power path still looks its regression heads up: the reply flag
  // keeps its meaning.
  EXPECT_TRUE(warm_power.regression_cache_hit);
  stats = session.cache_stats();
  EXPECT_EQ(stats.powers.hits, 1u);
  EXPECT_EQ(stats.scoaps.hits, 1u);
  EXPECT_EQ(stats.power_entries, 1u);
  EXPECT_EQ(stats.scoap_entries, 1u);

  // Warm results are bit-identical to a fresh session's cold ones.
  Session fresh(small_session());
  EXPECT_TRUE(same_power(warm_power, fresh.run_sync(power)));
  EXPECT_TRUE(same_power(warm_power, cold_power));
  const TaskResult fresh_test = fresh.run_sync(test);
  const ScoapMeasures& want = fresh_test.as<TestabilityOutput>().scoap;
  EXPECT_TRUE(same_scoap(warm_test.as<TestabilityOutput>().scoap, want));
  EXPECT_TRUE(same_scoap(cold_test.as<TestabilityOutput>().scoap, want));
}

TEST(Session, RenamedCopyGetsTheSamePowerReport) {
  Session session(small_session());
  const auto circuit = shared_aig(24);
  // Names the old suffix scheme collided on: even nodes all "x", odd nodes
  // x_1, x_2, ... themselves.
  Circuit copy = *circuit;
  for (NodeId v = 0; v < copy.num_nodes(); ++v)
    copy.set_node_name(v,
                       v % 2 == 0 ? "x" : "x_" + std::to_string((v + 1) / 2));
  const auto renamed = std::make_shared<const Circuit>(std::move(copy));

  const TaskResult first =
      session.run_sync(make_request(circuit, TaskKind::kPower));
  const TaskRequest req = make_request(renamed, TaskKind::kPower);
  const TaskResult second = session.run_sync(req);
  EXPECT_EQ(session.cache_stats().powers.hits, 1u);
  EXPECT_TRUE(same_power(second, first));
  // Computed cold, the renamed copy's report is the same bits: caching the
  // report under the EmbeddingKey, which ignores names, is exact.
  Session fresh(small_session());
  EXPECT_TRUE(same_power(fresh.run_sync(req), first));
}

TEST(Session, RenumberedIsomorphicCopyGetsItsOwnScoapMeasures) {
  Session session(small_session());
  const auto circuit = shared_aig(25);
  const auto permuted = std::make_shared<const Circuit>(renumbered(*circuit));
  ASSERT_EQ(structural_hash(*permuted), structural_hash(*circuit));
  ASSERT_NE(exact_hash(*permuted), exact_hash(*circuit));

  const TaskResult a =
      session.run_sync(make_request(circuit, TaskKind::kTestability));
  const TaskResult b =
      session.run_sync(make_request(permuted, TaskKind::kTestability));
  EXPECT_EQ(session.cache_stats().scoaps.misses, 2u);
  EXPECT_EQ(session.cache_stats().scoaps.hits, 0u);
  EXPECT_TRUE(same_scoap(a.as<TestabilityOutput>().scoap,
                         compute_scoap(*circuit)));
  EXPECT_TRUE(same_scoap(b.as<TestabilityOutput>().scoap,
                         compute_scoap(*permuted)));
  EXPECT_NE(a.as<TestabilityOutput>().scoap.cc0,
            b.as<TestabilityOutput>().scoap.cc0);
}

TEST(Session, NewWorkloadMissesThePowerLayerButHitsTheScoapLayer) {
  Session session(small_session());
  const auto circuit = shared_aig(26);
  (void)session.run_sync(make_request(circuit, TaskKind::kPower, 1));
  (void)session.run_sync(make_request(circuit, TaskKind::kTestability, 1));

  const TaskResult power =
      session.run_sync(make_request(circuit, TaskKind::kPower, 2));
  const TaskResult test =
      session.run_sync(make_request(circuit, TaskKind::kTestability, 2));
  const auto stats = session.cache_stats();
  EXPECT_EQ(stats.powers.misses, 2u);
  EXPECT_EQ(stats.powers.hits, 0u);
  EXPECT_EQ(stats.scoaps.misses, 1u);
  EXPECT_EQ(stats.scoaps.hits, 1u);
  EXPECT_FALSE(power.regression_cache_hit);

  Session fresh(small_session());
  EXPECT_TRUE(same_power(
      power, fresh.run_sync(make_request(circuit, TaskKind::kPower, 2))));
}

TEST(Session, ConcurrentPowerAndTestabilityRequestsAreSafe) {
  Session session(small_session());
  Session reference(small_session());
  std::vector<std::shared_ptr<const Circuit>> circuits;
  std::vector<TaskResult> want_power, want_test;
  for (std::uint64_t seed = 30; seed < 33; ++seed) {
    circuits.push_back(shared_aig(seed));
    want_power.push_back(
        reference.run_sync(make_request(circuits.back(), TaskKind::kPower)));
    want_test.push_back(reference.run_sync(
        make_request(circuits.back(), TaskKind::kTestability)));
  }
  // Two threads race power and testability requests over the same three
  // circuits on one Session: both head layers fill and hit concurrently.
  constexpr int kThreads = 2, kRequests = 24;
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequests; ++i) {
        const std::size_t c = static_cast<std::size_t>(i) % circuits.size();
        if ((i + t) % 2 == 0) {
          const TaskResult got =
              session.run_sync(make_request(circuits[c], TaskKind::kPower));
          if (!same_power(got, want_power[c])) ++wrong[t];
        } else {
          const TaskResult got = session.run_sync(
              make_request(circuits[c], TaskKind::kTestability));
          if (!same_scoap(got.as<TestabilityOutput>().scoap,
                          want_test[c].as<TestabilityOutput>().scoap))
            ++wrong[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
  const auto stats = session.cache_stats();
  EXPECT_EQ(stats.powers.hits + stats.powers.misses +
                stats.scoaps.hits + stats.scoaps.misses,
            static_cast<std::uint64_t>(kThreads * kRequests));
}

}  // namespace
}  // namespace deepseq::api
