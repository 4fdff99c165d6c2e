#include "api/session.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "api/backends.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dataset/embedded.hpp"
#include "dataset/generator.hpp"
#include "netlist/aig.hpp"
#include "netlist/scoap.hpp"
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

}  // namespace
}  // namespace deepseq::api
