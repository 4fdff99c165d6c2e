// End-to-end serving-tier tests over real loopback TCP: every TaskKind's
// socket round trip is bit-identical to a direct Session::run_sync with the
// same preset (the tier's acceptance contract), overload sheds typed
// instead of queueing unboundedly, the stats endpoint serves valid JSON
// and counts one circuit-memo miss per new circuit section, a renamed copy
// misses the memo but is served from the first copy's embedding, a
// malformed circuit section is a typed bad request, and reload_weights
// flips every shard coordinated through the wire, resolved "name@hash"
// against an artifact::Store directory.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/backends.hpp"
#include "artifact/model_io.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dataset/generator.hpp"
#include "netlist/structural_hash.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/workload.hpp"
#include "support/json_check.hpp"

namespace deepseq::serve {
namespace {

ModelConfig small_model() { return ModelConfig::deepseq(/*hidden=*/8, /*t=*/2); }

ServeConfig small_server(int shards = 2, int workers = 1,
                         std::size_t depth = 64) {
  ServeConfig cfg;
  cfg.router.shards = shards;
  cfg.router.workers_per_shard = workers;
  cfg.router.admission.default_depth = depth;
  cfg.router.session.backends.model = small_model();
  return cfg;
}

std::shared_ptr<const Circuit> shared_aig(std::uint64_t seed) {
  Rng rng(seed);
  GeneratorSpec spec;
  spec.num_pis = 5;
  spec.num_ffs = 3;
  spec.num_gates = 40;
  for (int t = 0; t < kNumGateTypes; ++t) spec.gate_weights[t] = 0.0;
  spec.gate_weights[static_cast<int>(GateType::kAnd)] = 4.0;
  spec.gate_weights[static_cast<int>(GateType::kNot)] = 2.0;
  return std::make_shared<const Circuit>(generate_circuit(spec, rng));
}

api::TaskRequest make_request(std::shared_ptr<const Circuit> circuit,
                              api::TaskKind task,
                              std::uint64_t workload_seed = 9) {
  Rng rng(workload_seed);
  api::TaskRequest req;
  req.workload = random_workload(*circuit, rng);
  req.circuit = std::move(circuit);
  req.task = task;
  req.init_seed = 7;
  return req;
}

bool bit_identical(const nn::Tensor& a, const nn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool bit_identical(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The acceptance predicate: a served TaskResult carries exactly the bits a
/// direct run_sync produced (timings and cache flags are scheduling, not
/// output, and are excluded).
void expect_output_bit_identical(const api::TaskResult& got,
                                 const api::TaskResult& want) {
  ASSERT_EQ(got.task, want.task);
  EXPECT_EQ(got.backend, want.backend);
  EXPECT_EQ(got.structure, want.structure);
  switch (want.task) {
    case api::TaskKind::kEmbedding:
      EXPECT_TRUE(bit_identical(*got.as<api::EmbeddingOutput>().embedding,
                                *want.as<api::EmbeddingOutput>().embedding));
      break;
    case api::TaskKind::kLogicProb:
      EXPECT_TRUE(bit_identical(*got.as<api::LogicProbOutput>().prob,
                                *want.as<api::LogicProbOutput>().prob));
      break;
    case api::TaskKind::kTransitionProb:
      EXPECT_TRUE(bit_identical(*got.as<api::TransitionProbOutput>().prob,
                                *want.as<api::TransitionProbOutput>().prob));
      break;
    case api::TaskKind::kPower: {
      const auto& g = got.as<api::PowerOutput>();
      const auto& w = want.as<api::PowerOutput>();
      EXPECT_TRUE(bits_equal(g.report.total_watts, w.report.total_watts));
      EXPECT_TRUE(bits_equal(g.report.combinational_watts,
                             w.report.combinational_watts));
      EXPECT_TRUE(bits_equal(g.report.sequential_watts,
                             w.report.sequential_watts));
      EXPECT_TRUE(bits_equal(g.report.io_watts, w.report.io_watts));
      EXPECT_EQ(g.report.nets_matched, w.report.nets_matched);
      EXPECT_EQ(g.report.nets_missing, w.report.nets_missing);
      EXPECT_TRUE(bit_identical(g.logic1, w.logic1));
      EXPECT_TRUE(bit_identical(g.toggle_rate, w.toggle_rate));
      break;
    }
    case api::TaskKind::kReliability: {
      const auto& g = got.as<api::ReliabilityOutput>();
      const auto& w = want.as<api::ReliabilityOutput>();
      EXPECT_TRUE(bits_equal(g.circuit_reliability, w.circuit_reliability));
      EXPECT_TRUE(bit_identical(g.node_reliability, w.node_reliability));
      break;
    }
    case api::TaskKind::kTestability: {
      const auto& g = got.as<api::TestabilityOutput>().scoap;
      const auto& w = want.as<api::TestabilityOutput>().scoap;
      EXPECT_TRUE(bit_identical(g.cc0, w.cc0));
      EXPECT_TRUE(bit_identical(g.cc1, w.cc1));
      EXPECT_TRUE(bit_identical(g.co, w.co));
      EXPECT_EQ(g.controllability_iterations, w.controllability_iterations);
      EXPECT_EQ(g.observability_iterations, w.observability_iterations);
      break;
    }
  }
}

// The acceptance criterion of the tier: for EVERY TaskKind, a request that
// crossed the socket, the router and a shard worker returns bit-identical
// output to a direct Session::run_sync built from the same preset.
TEST(ServeServer, SocketRoundTripBitIdenticalForEveryTaskKind) {
  const ServeConfig cfg = small_server();
  Server server(cfg);
  Client client(server.port());
  api::Session reference(cfg.router.session);

  for (int k = 0; k < kNumTaskKinds; ++k) {
    const api::TaskKind kind = static_cast<api::TaskKind>(k);
    const api::TaskRequest req = make_request(shared_aig(7), kind);
    const TaskReply reply = client.run(req);
    EXPECT_EQ(reply.shard,
              server.router().shard_for(structural_hash(*req.circuit)));
    expect_output_bit_identical(reply.result, reference.run_sync(req));
  }
}

TEST(ServeServer, ManyInFlightRequestsCompleteOutOfOrderOnOneConnection) {
  Server server(small_server(/*shards=*/2, /*workers=*/2));
  Client client(server.port());

  std::vector<api::TaskRequest> reqs;
  std::vector<std::future<TaskReply>> futures;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    reqs.push_back(make_request(
        shared_aig(seed),
        static_cast<api::TaskKind>(seed % kNumTaskKinds), seed));
    futures.push_back(client.submit(reqs.back()));
  }
  api::Session reference(small_server().router.session);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const TaskReply reply = futures[i].get();
    expect_output_bit_identical(reply.result, reference.run_sync(reqs[i]));
  }
}

// Overload contract: with an undersized queue the server sheds TYPED rather
// than queueing unboundedly, and the accounting closes exactly — every
// submission ends as completed, shed or failed.
TEST(ServeServer, SaturationShedsTypedAndAccountingCloses) {
  Server server(small_server(/*shards=*/1, /*workers=*/1, /*depth=*/1));
  Client client(server.port());

  const int kBurst = 48;
  std::vector<std::future<TaskReply>> futures;
  for (int i = 0; i < kBurst; ++i)
    futures.push_back(client.submit(
        make_request(shared_aig(1 + (i % 4)), api::TaskKind::kEmbedding,
                     static_cast<std::uint64_t>(i))));

  int completed = 0, shed = 0, failed = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++completed;
    } catch (const ServeError& e) {
      if (e.overloaded()) {
        EXPECT_EQ(e.code(), ErrorCode::kOverloadQueueFull);
        ++shed;
      } else {
        ++failed;
      }
    }
  }
  EXPECT_EQ(completed + shed + failed, kBurst);
  EXPECT_GT(completed, 0);
  EXPECT_GT(shed, 0) << "a 1-deep queue under a 48-burst must shed";
  EXPECT_EQ(failed, 0);

  // The per-shard admission counters agree with the client's view.
  const ShardRouter::ShardStats st = server.router().shard_stats(0);
  std::uint64_t counted_shed = 0;
  for (int k = 0; k < kNumTaskKinds; ++k) counted_shed += st.admission.shed[k];
  EXPECT_EQ(counted_shed, static_cast<std::uint64_t>(shed));
}

TEST(ServeServer, StatsEndpointServesValidJson) {
  Server server(small_server());
  Client client(server.port());
  (void)client.run(make_request(shared_aig(2), api::TaskKind::kEmbedding));

  for (const std::string& doc : {client.stats_json(), server.stats_json()}) {
    EXPECT_TRUE(testing::valid_json(doc)) << doc;
    EXPECT_NE(doc.find("\"per_shard\""), std::string::npos);
    EXPECT_NE(doc.find("\"requests\""), std::string::npos);
    EXPECT_NE(doc.find("\"shards\":2"), std::string::npos);
    // Every cache layer of a shard, the task-head layers included.
    for (const char* layer : {"structures", "embeddings", "regressions",
                              "power", "scoap"})
      EXPECT_NE(doc.find("\"" + std::string(layer) + "\":{\"hits\""),
                std::string::npos)
          << layer;
  }
}

/// The structure_memo hits and misses a stats document reports.
struct MemoCounts {
  unsigned long long hits = 0;
  unsigned long long misses = 0;
};

MemoCounts memo_counts(const std::string& doc) {
  MemoCounts c;
  const std::size_t at = doc.find("\"structure_memo\"");
  if (at == std::string::npos ||
      std::sscanf(doc.c_str() + at,
                  "\"structure_memo\":{\"hits\":%llu,\"misses\":%llu}",
                  &c.hits, &c.misses) != 2)
    ADD_FAILURE() << "no structure_memo counters in " << doc;
  return c;
}

TEST(ServeServer, StatsCountOneStructuralHashPerNewStructure) {
  Server server(small_server());
  Client client(server.port());
  const auto circuit = shared_aig(5);
  constexpr unsigned long long kRepeats = 4;

  // The counters are process-wide, so compare against a baseline.
  const MemoCounts before = memo_counts(server.stats_json());
  for (unsigned long long i = 0; i < kRepeats; ++i)
    (void)client.run(make_request(circuit, api::TaskKind::kLogicProb));
  // Every request carries the same circuit bytes: the first is decoded and
  // hashed, the repeats reuse that circuit and its identity.
  for (const std::string& doc : {client.stats_json(), server.stats_json()}) {
    const MemoCounts after = memo_counts(doc);
    EXPECT_EQ(after.misses - before.misses, 1u) << doc;
    EXPECT_EQ(after.hits - before.hits, kRepeats - 1) << doc;
  }
}

TEST(ServeServer, RenamedCopyMissesTheMemoButIsServedFromTheFirstEmbedding) {
  Server server(small_server(/*shards=*/3));
  Client client(server.port());
  const auto original = shared_aig(6);
  Circuit copy = *original;
  for (NodeId v = 0; v < copy.num_nodes(); ++v)
    copy.set_node_name(v, "renamed_" + std::to_string(v));
  const auto renamed = std::make_shared<const Circuit>(std::move(copy));
  ASSERT_EQ(exact_hash(*renamed), exact_hash(*original));

  const TaskReply first =
      client.run(make_request(original, api::TaskKind::kEmbedding));
  const MemoCounts before = memo_counts(server.stats_json());
  // Other names are other bytes: the memo misses and decodes the copy, and
  // its identity equals the original's, so it routes to the same shard and
  // that shard serves the embedding it already holds.
  const TaskReply second =
      client.run(make_request(renamed, api::TaskKind::kEmbedding));
  const MemoCounts after = memo_counts(server.stats_json());
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(second.shard, first.shard);
  EXPECT_TRUE(second.result.embedding_cache_hit);
  expect_output_bit_identical(second.result, first.result);
}

/// Connect a raw socket to the server, send one task-request frame with
/// `payload`, and decode the error frame that answers it.
ErrorResponseMsg send_raw_task_request(std::uint16_t port,
                                       const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw Error("connect() failed");
  }
  const std::string frame = encode_frame(MsgType::kTaskRequest, payload);
  if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(frame.size())) {
    ::close(fd);
    throw Error("send() failed");
  }
  FrameParser parser;
  char buf[4096];
  std::optional<FrameParser::Frame> reply;
  while (!reply) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    parser.feed(buf, static_cast<std::size_t>(n));
    reply = parser.next();
  }
  ::close(fd);
  if (!reply || reply->type != MsgType::kErrorResponse)
    throw Error("expected an error frame");
  return decode_error_response(reply->payload);
}

TEST(ServeServer, MalformedCircuitSectionIsATypedBadRequest) {
  Server server(small_server());
  TaskRequestMsg msg;
  msg.request_id = 77;
  msg.circuit = *shared_aig(8);
  Rng rng(1);
  msg.workload = random_workload(msg.circuit, rng);
  std::string payload = encode(msg);
  // The circuit section starts after id, version, kind, the empty backend
  // string, seed, deadline and its own length prefix; its first node's type
  // byte follows the circuit name and the node count.
  const std::size_t section_at = 8 + 4 + 1 + 4 + 8 + 4 + 4;
  const std::size_t type_at = section_at + 4 + msg.circuit.name().size() + 4;
  payload[type_at] = static_cast<char>(0xEE);

  const MemoCounts before = memo_counts(server.stats_json());
  for (int attempt = 0; attempt < 2; ++attempt) {
    const ErrorResponseMsg err = send_raw_task_request(server.port(), payload);
    EXPECT_EQ(err.request_id, 77u);
    EXPECT_EQ(err.code, ErrorCode::kBadRequest);
    EXPECT_NE(err.detail.find("gate type"), std::string::npos) << err.detail;
  }
  // The second attempt missed again: nothing was remembered.
  const MemoCounts after = memo_counts(server.stats_json());
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses - before.misses, 2u);

  // The server keeps serving well-formed requests.
  Client client(server.port());
  EXPECT_NO_THROW((void)client.run(
      make_request(shared_aig(8), api::TaskKind::kTestability)));
}

TEST(ServeServer, ReloadOverTheWireFlipsEveryShardCoordinated) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/serve_store";
  fs::remove_all(dir);
  fs::create_directories(dir);
  artifact::Artifact art = artifact::snapshot(DeepSeqModel(small_model()));
  artifact::save_artifact(dir + "/model.dsqa", art);

  ServeConfig cfg = small_server(/*shards=*/3);
  cfg.artifact_dir = dir;
  Server server(cfg);
  Client client(server.port());

  const std::uint64_t seed_fp = server.router().shard_fingerprint(0);
  const std::uint64_t new_fp = client.reload("model@latest");
  EXPECT_NE(new_fp, seed_fp);
  for (int s = 0; s < server.router().num_shards(); ++s)
    EXPECT_EQ(server.router().shard_fingerprint(s), new_fp) << "shard " << s;

  // Serving continues on the new weights.
  EXPECT_NO_THROW(
      (void)client.run(make_request(shared_aig(3), api::TaskKind::kLogicProb)));

  // Re-pushing the live artifact fails every shard's no-op guard — typed
  // kInternal, fingerprints untouched.
  try {
    (void)client.reload("model@latest");
    FAIL() << "re-pushing live weights must fail typed";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
    EXPECT_FALSE(e.overloaded());
  }
  for (int s = 0; s < server.router().num_shards(); ++s)
    EXPECT_EQ(server.router().shard_fingerprint(s), new_fp);

  // Unknown refs are the client's fault, not the server's.
  try {
    (void)client.reload("nonesuch@latest");
    FAIL() << "unknown artifact ref must fail typed";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
    EXPECT_NE(std::string(e.what()).find("nonesuch"), std::string::npos);
  }
}

TEST(ServeServer, ReloadWithoutArtifactDirIsBadRequest) {
  // No ServeConfig::artifact_dir and no DEEPSEQ_ARTIFACT_DIR: the endpoint
  // rejects typed instead of guessing.
  unsetenv("DEEPSEQ_ARTIFACT_DIR");
  Server server(small_server(1));
  Client client(server.port());
  try {
    (void)client.reload("model@latest");
    FAIL() << "reload without a store must fail typed";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
}

TEST(ServeServer, BadArtifactDirFailsConstructionFast) {
  ServeConfig cfg = small_server(1);
  cfg.artifact_dir = ::testing::TempDir() + "/definitely/not/a/store";
  EXPECT_THROW(Server{cfg}, Error);
}

// Shutdown drains typed: a stop() racing a burst must resolve EVERY future
// — completed, or a typed ServeError — never a hang or a silent drop.
TEST(ServeServer, StopResolvesEveryOutstandingFutureTyped) {
  auto server = std::make_unique<Server>(
      small_server(/*shards=*/1, /*workers=*/1, /*depth=*/64));
  Client client(server->port());

  std::vector<std::future<TaskReply>> futures;
  for (int i = 0; i < 16; ++i)
    futures.push_back(client.submit(
        make_request(shared_aig(1 + (i % 4)), api::TaskKind::kEmbedding,
                     static_cast<std::uint64_t>(i))));
  server->stop();

  int completed = 0, typed = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++completed;
    } catch (const ServeError&) {
      ++typed;
    }
  }
  EXPECT_EQ(completed + typed, 16);
  server.reset();
}

}  // namespace
}  // namespace deepseq::serve
