// Wire-protocol codec tests: every message type round-trips bit-identically
// (floats travel as raw IEEE-754 bit patterns — the tier's acceptance
// contract), every decoder is fail-fast on truncation, trailing bytes,
// unknown enums and version skew, and the FrameParser reassembles frames
// from arbitrary byte fragmentation.

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "netlist/structural_hash.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"

namespace deepseq::serve {
namespace {

// A small sequential netlist exercising every wire feature: FF feedback
// (set_fanin closes the loop to a LATER node id, which decode must accept
// before that node exists), node and PO names (the power task matches nets
// by name), and a node that is both PO and FF fanin.
Circuit wire_circuit() {
  Circuit c("wire");
  const NodeId a = c.add_pi("in_a");
  const NodeId b = c.add_pi("in_b");
  const NodeId ff = c.add_ff(kNullNode, "state");
  const NodeId g1 = c.add_and(a, ff, "g1");
  const NodeId g2 = c.add_not(b, "g2");
  const NodeId g3 = c.add_and(g1, g2, "g3");
  c.set_fanin(ff, 0, g3);  // feedback: FF created before its D source
  c.add_po(g3, "out");
  c.add_po(ff, "state_out");
  c.validate();
  return c;
}

Workload wire_workload() {
  Workload wl;
  wl.pattern_seed = 0x1234'5678'9abc'def0ULL;
  wl.pi_prob = {0.0, 1.0, 0.4999999999999999, 1e-300};
  return wl;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool bits_equal(float a, float b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(ServeProtocol, CircuitRoundTripPreservesStructureAndNames) {
  const Circuit c = wire_circuit();
  WireWriter w;
  encode_circuit(w, c);
  WireReader r(w.data());
  const Circuit d = decode_circuit(r);
  EXPECT_EQ(r.remaining(), 0u);

  ASSERT_EQ(d.num_nodes(), c.num_nodes());
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    EXPECT_EQ(d.type(id), c.type(id)) << "node " << id;
    ASSERT_EQ(d.num_fanins(id), c.num_fanins(id)) << "node " << id;
    for (int s = 0; s < c.num_fanins(id); ++s)
      EXPECT_EQ(d.fanin(id, s), c.fanin(id, s)) << "node " << id;
    EXPECT_EQ(d.node_name(id), c.node_name(id)) << "node " << id;
  }
  EXPECT_EQ(d.name(), c.name());
  EXPECT_EQ(d.pis(), c.pis());
  EXPECT_EQ(d.ffs(), c.ffs());
  ASSERT_EQ(d.pos(), c.pos());
  for (std::size_t k = 0; k < c.pos().size(); ++k)
    EXPECT_EQ(d.po_name(k), c.po_name(k));
  EXPECT_NO_THROW(d.validate());
  EXPECT_EQ(structural_hash(d), structural_hash(c));
  EXPECT_EQ(exact_hash(d), exact_hash(c));
}

TEST(ServeProtocol, WorkloadRoundTripIsBitIdentical) {
  const Workload wl = wire_workload();
  WireWriter w;
  encode_workload(w, wl);
  WireReader r(w.data());
  const Workload d = decode_workload(r);
  EXPECT_EQ(d.pattern_seed, wl.pattern_seed);
  ASSERT_EQ(d.pi_prob.size(), wl.pi_prob.size());
  for (std::size_t i = 0; i < wl.pi_prob.size(); ++i)
    EXPECT_TRUE(bits_equal(d.pi_prob[i], wl.pi_prob[i])) << "pi " << i;
}

TEST(ServeProtocol, TensorRoundTripPreservesEveryBitPattern) {
  nn::Tensor t(2, 3);
  t.at(0, 0) = 0.0f;
  t.at(0, 1) = -0.0f;  // signed zero survives
  t.at(0, 2) = std::numeric_limits<float>::infinity();
  t.at(1, 0) = -std::numeric_limits<float>::denorm_min();
  t.at(1, 1) = std::numeric_limits<float>::quiet_NaN();
  t.at(1, 2) = 1.0f / 3.0f;
  WireWriter w;
  encode_tensor(w, t);
  WireReader r(w.data());
  const nn::Tensor d = decode_tensor(r);
  ASSERT_EQ(d.rows(), t.rows());
  ASSERT_EQ(d.cols(), t.cols());
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_TRUE(bits_equal(d.data()[i], t.data()[i])) << "element " << i;
}

TEST(ServeProtocol, TaskRequestRoundTrip) {
  TaskRequestMsg m;
  m.request_id = 0xfeed'beef'cafe'f00dULL;
  m.task = api::TaskKind::kPower;
  m.backend = "deepseq";
  m.init_seed = 42;
  m.deadline_ms = 1500;
  m.circuit = wire_circuit();
  m.workload = wire_workload();

  const TaskRequestMsg d = decode_task_request(encode(m));
  EXPECT_EQ(d.request_id, m.request_id);
  EXPECT_EQ(d.task, m.task);
  EXPECT_EQ(d.backend, m.backend);
  EXPECT_EQ(d.init_seed, m.init_seed);
  EXPECT_EQ(d.deadline_ms, m.deadline_ms);
  EXPECT_EQ(structural_hash(d.circuit), structural_hash(m.circuit));
  EXPECT_EQ(d.workload.pattern_seed, m.workload.pattern_seed);
  EXPECT_EQ(d.workload.pi_prob.size(), m.workload.pi_prob.size());
}

TEST(ServeProtocol, RequestViewLeavesTheCircuitSectionAsBytes) {
  TaskRequestMsg m;
  m.request_id = 5;
  m.task = api::TaskKind::kTestability;
  m.backend = "pace";
  m.init_seed = 3;
  m.deadline_ms = 20;
  m.circuit = wire_circuit();
  m.workload = wire_workload();
  const std::string payload = encode(m);

  const TaskRequestView v = decode_task_request_view(payload);
  EXPECT_EQ(v.request_id, m.request_id);
  EXPECT_EQ(v.task, m.task);
  EXPECT_EQ(v.backend, m.backend);
  EXPECT_EQ(v.init_seed, m.init_seed);
  EXPECT_EQ(v.deadline_ms, m.deadline_ms);
  EXPECT_EQ(v.workload.pi_prob, m.workload.pi_prob);
  // The section is encode_circuit's bytes, viewed in place in the payload.
  WireWriter w;
  encode_circuit(w, m.circuit);
  EXPECT_EQ(v.circuit_section, w.data());
  EXPECT_GE(v.circuit_section.data(), payload.data());
  EXPECT_LE(v.circuit_section.data() + v.circuit_section.size(),
            payload.data() + payload.size());
  const Circuit d = decode_circuit_section(v.circuit_section);
  EXPECT_EQ(exact_hash(d), exact_hash(m.circuit));
  EXPECT_THROW(decode_circuit_section(std::string(w.data()) + '\0'), Error);
}

TEST(ServeProtocol, EncodingFromTheSharedCircuitMatchesTheMessageEncoding) {
  TaskRequestMsg m;
  m.request_id = 11;
  m.task = api::TaskKind::kPower;
  m.backend = "deepseq";
  m.init_seed = 9;
  m.deadline_ms = 250;
  m.circuit = wire_circuit();
  m.workload = wire_workload();
  api::TaskRequest request;
  request.circuit = std::make_shared<const Circuit>(m.circuit);
  request.workload = m.workload;
  request.task = m.task;
  request.backend = m.backend;
  request.init_seed = m.init_seed;
  EXPECT_EQ(encode_task_request(m.request_id, request, m.deadline_ms),
            encode(m));
  request.circuit = nullptr;
  EXPECT_THROW((void)encode_task_request(1, request, 0), Error);
}

TEST(ServeProtocol, CircuitSectionLengthMustMatchItsContent) {
  TaskRequestMsg m;
  m.circuit = wire_circuit();
  m.workload = wire_workload();
  const std::string payload = encode(m);
  // The u32 section length follows id, version, kind, the empty backend
  // string, seed and deadline.
  const std::size_t length_at = 8 + 4 + 1 + 4 + 8 + 4;
  for (const int delta : {-1, 1}) {
    std::string bad = payload;
    bad[length_at] = static_cast<char>(bad[length_at] + delta);
    EXPECT_THROW(decode_task_request(bad), Error) << "delta " << delta;
  }
  std::string huge = payload;
  huge[length_at + 3] = static_cast<char>(0x7f);
  EXPECT_THROW(decode_task_request_view(huge), Error);
}

TEST(ServeProtocol, ImplausibleNodeCountIsRejectedBeforeAllocating) {
  WireWriter w;
  w.str("big");
  w.u32(0x7fffffffu);  // nodes the rest of the section cannot hold
  w.u32(0);
  EXPECT_THROW(decode_circuit_section(w.data()), Error);
}

TEST(ServeProtocol, RequestIdLeadsEveryRequestPayload) {
  // The server peeks the first 8 payload bytes to address a typed error for
  // a frame it cannot decode — pin that layout for every request type.
  const std::uint64_t id = 0x0102'0304'0506'0708ULL;
  TaskRequestMsg task;
  task.request_id = id;
  task.circuit = wire_circuit();
  ReloadRequestMsg reload;
  reload.request_id = id;
  reload.artifact_ref = "model@latest";
  StatsRequestMsg stats;
  stats.request_id = id;
  for (const std::string& payload :
       {encode(task), encode(reload), encode(stats)}) {
    ASSERT_GE(payload.size(), 8u);
    std::uint64_t lead = 0;
    std::memcpy(&lead, payload.data(), 8);
    EXPECT_EQ(lead, id);
  }
}

TEST(ServeProtocol, VersionMismatchIsRejectedTyped) {
  TaskRequestMsg m;
  m.circuit = wire_circuit();
  std::string payload = encode(m);
  payload[8] = 9;  // version u32 follows the 8-byte request id
  try {
    decode_task_request(payload);
    FAIL() << "version skew must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(ServeProtocol, UnknownTaskKindIsRejected) {
  TaskRequestMsg m;
  m.circuit = wire_circuit();
  std::string payload = encode(m);
  payload[12] = 17;  // kind byte follows id + version
  EXPECT_THROW(decode_task_request(payload), Error);
}

TEST(ServeProtocol, TruncationAlwaysThrowsNeverMisreads) {
  TaskRequestMsg m;
  m.request_id = 7;
  m.backend = "deepseq";
  m.circuit = wire_circuit();
  m.workload = wire_workload();
  const std::string payload = encode(m);
  for (std::size_t n = 0; n < payload.size(); ++n)
    EXPECT_THROW(decode_task_request(payload.substr(0, n)), Error)
        << "prefix " << n;
}

TEST(ServeProtocol, TrailingBytesAreRejected) {
  TaskRequestMsg m;
  m.circuit = wire_circuit();
  EXPECT_THROW(decode_task_request(encode(m) + '\0'), Error);
  StatsRequestMsg s;
  EXPECT_THROW(decode_stats_request(encode(s) + "x"), Error);
}

api::TaskResult result_for(api::TaskKind kind) {
  api::TaskResult res;
  res.task = kind;
  res.backend = "deepseq";
  res.structure.digest = 0xabcdef;
  res.structure.num_nodes = 9;
  res.structure.num_pis = 2;
  res.structure.num_pos = 2;
  res.structure.num_ffs = 1;
  res.structure_cache_hit = true;
  res.regression_cache_hit = true;
  res.queue_ms = 0.25;
  res.compute_ms = 1.5;
  res.total_ms = 1.75;
  auto tensor = [](int rows, int cols, float seed) {
    nn::Tensor t(rows, cols);
    for (std::size_t i = 0; i < t.size(); ++i)
      t.data()[i] = seed + 0.125f * static_cast<float>(i);
    return std::make_shared<const nn::Tensor>(std::move(t));
  };
  switch (kind) {
    case api::TaskKind::kEmbedding:
      res.output = api::EmbeddingOutput{tensor(4, 8, 0.5f)};
      break;
    case api::TaskKind::kLogicProb:
      res.output = api::LogicProbOutput{tensor(4, 1, 0.25f)};
      break;
    case api::TaskKind::kTransitionProb:
      res.output = api::TransitionProbOutput{tensor(4, 2, 0.75f)};
      break;
    case api::TaskKind::kPower: {
      api::PowerOutput out;
      out.report.total_watts = 1.5;
      out.report.combinational_watts = 0.75;
      out.report.sequential_watts = 0.5;
      out.report.io_watts = 0.25;
      out.report.nets_matched = 40;
      out.report.nets_missing = 2;
      out.logic1 = {0.1, 0.9, 0.5};
      out.toggle_rate = {0.01, 0.2, 0.33};
      res.output = std::move(out);
      break;
    }
    case api::TaskKind::kReliability: {
      api::ReliabilityOutput out;
      out.circuit_reliability = 0.875;
      out.node_reliability = {1.0, 0.5, 0.25};
      res.output = std::move(out);
      break;
    }
    case api::TaskKind::kTestability: {
      api::TestabilityOutput out;
      out.scoap.cc0 = {1.0, 2.0};
      out.scoap.cc1 = {3.0, 4.0};
      out.scoap.co = {5.0, 6.0};
      out.scoap.controllability_iterations = 3;
      out.scoap.observability_iterations = 2;
      res.output = std::move(out);
      break;
    }
  }
  return res;
}

TEST(ServeProtocol, TaskResponseRoundTripForEveryKind) {
  for (int k = 0; k < kNumTaskKinds; ++k) {
    const api::TaskKind kind = static_cast<api::TaskKind>(k);
    TaskResponseMsg m;
    m.request_id = 100 + static_cast<std::uint64_t>(k);
    m.shard = 3;
    m.result = result_for(kind);

    const TaskResponseMsg d = decode_task_response(encode(m));
    EXPECT_EQ(d.request_id, m.request_id);
    EXPECT_EQ(d.shard, m.shard);
    EXPECT_EQ(d.result.task, kind);
    EXPECT_EQ(d.result.backend, "deepseq");
    EXPECT_EQ(d.result.structure, m.result.structure);
    EXPECT_TRUE(d.result.structure_cache_hit);
    EXPECT_FALSE(d.result.embedding_cache_hit);
    EXPECT_TRUE(d.result.regression_cache_hit);
    EXPECT_TRUE(bits_equal(d.result.queue_ms, m.result.queue_ms));
    EXPECT_TRUE(bits_equal(d.result.compute_ms, m.result.compute_ms));
    EXPECT_TRUE(bits_equal(d.result.total_ms, m.result.total_ms));
    switch (kind) {
      case api::TaskKind::kEmbedding: {
        const auto& a = *m.result.as<api::EmbeddingOutput>().embedding;
        const auto& b = *d.result.as<api::EmbeddingOutput>().embedding;
        ASSERT_EQ(b.rows(), a.rows());
        ASSERT_EQ(b.cols(), a.cols());
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
        break;
      }
      case api::TaskKind::kLogicProb:
        EXPECT_EQ(d.result.as<api::LogicProbOutput>().prob->rows(), 4);
        break;
      case api::TaskKind::kTransitionProb:
        EXPECT_EQ(d.result.as<api::TransitionProbOutput>().prob->cols(), 2);
        break;
      case api::TaskKind::kPower: {
        const auto& out = d.result.as<api::PowerOutput>();
        EXPECT_TRUE(bits_equal(out.report.total_watts, 1.5));
        EXPECT_EQ(out.report.nets_matched, 40u);
        EXPECT_EQ(out.report.nets_missing, 2u);
        EXPECT_EQ(out.logic1.size(), 3u);
        EXPECT_TRUE(bits_equal(out.toggle_rate[2], 0.33));
        break;
      }
      case api::TaskKind::kReliability: {
        const auto& out = d.result.as<api::ReliabilityOutput>();
        EXPECT_TRUE(bits_equal(out.circuit_reliability, 0.875));
        EXPECT_EQ(out.node_reliability.size(), 3u);
        break;
      }
      case api::TaskKind::kTestability: {
        const auto& out = d.result.as<api::TestabilityOutput>();
        EXPECT_EQ(out.scoap.cc1, (std::vector<double>{3.0, 4.0}));
        EXPECT_EQ(out.scoap.controllability_iterations, 3);
        EXPECT_EQ(out.scoap.observability_iterations, 2);
        break;
      }
    }
  }
}

TEST(ServeProtocol, ErrorReloadAndStatsRoundTrips) {
  ErrorResponseMsg err;
  err.request_id = 11;
  err.code = ErrorCode::kOverloadDeadline;
  err.detail = "estimated wait 12ms > budget 5ms";
  const ErrorResponseMsg derr = decode_error_response(encode(err));
  EXPECT_EQ(derr.request_id, err.request_id);
  EXPECT_EQ(derr.code, err.code);
  EXPECT_EQ(derr.detail, err.detail);

  ReloadRequestMsg rel;
  rel.request_id = 12;
  rel.backend = "deepseq";
  rel.artifact_ref = "model@1a2b";
  const ReloadRequestMsg drel = decode_reload_request(encode(rel));
  EXPECT_EQ(drel.artifact_ref, rel.artifact_ref);
  EXPECT_EQ(drel.backend, rel.backend);

  ReloadResponseMsg relr;
  relr.request_id = 13;
  relr.fingerprint = 0x1122'3344'5566'7788ULL;
  relr.shards = 4;
  const ReloadResponseMsg drelr = decode_reload_response(encode(relr));
  EXPECT_EQ(drelr.fingerprint, relr.fingerprint);
  EXPECT_EQ(drelr.shards, relr.shards);

  StatsResponseMsg st;
  st.request_id = 14;
  st.json = "{\"ok\":true}";
  EXPECT_EQ(decode_stats_response(encode(st)).json, st.json);
}

TEST(ServeProtocol, InvalidErrorCodeIsRejected) {
  ErrorResponseMsg err;
  err.code = ErrorCode::kBadRequest;
  std::string payload = encode(err);
  payload[8] = 0;  // code byte follows the request id
  EXPECT_THROW(decode_error_response(payload), Error);
  payload[8] = 6;
  EXPECT_THROW(decode_error_response(payload), Error);
}

TEST(ServeProtocol, FrameParserReassemblesByteAtATime) {
  StatsRequestMsg a;
  a.request_id = 1;
  ErrorResponseMsg b;
  b.request_id = 2;
  b.code = ErrorCode::kShuttingDown;
  b.detail = "drain";
  const std::string stream =
      encode_frame(MsgType::kStatsRequest, encode(a)) +
      encode_frame(MsgType::kErrorResponse, encode(b));

  FrameParser parser;
  std::vector<FrameParser::Frame> frames;
  for (char byte : stream) {
    parser.feed(&byte, 1);
    while (auto f = parser.next()) frames.push_back(std::move(*f));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MsgType::kStatsRequest);
  EXPECT_EQ(decode_stats_request(frames[0].payload).request_id, 1u);
  EXPECT_EQ(frames[1].type, MsgType::kErrorResponse);
  EXPECT_EQ(decode_error_response(frames[1].payload).detail, "drain");
}

TEST(ServeProtocol, FrameParserRejectsOversizedAndUnknownFrames) {
  // Corrupt length prefix: must throw before trying to buffer 4 GB.
  FrameParser oversized;
  const std::uint32_t huge = kMaxFrameBytes + 1;
  char hdr[5];
  std::memcpy(hdr, &huge, 4);
  hdr[4] = static_cast<char>(MsgType::kStatsRequest);
  oversized.feed(hdr, sizeof hdr);
  EXPECT_THROW(oversized.next(), Error);

  FrameParser unknown;
  const std::string frame = encode_frame(MsgType::kStatsRequest, "");
  std::string bad = frame;
  bad[4] = 99;  // type byte
  unknown.feed(bad.data(), bad.size());
  EXPECT_THROW(unknown.next(), Error);
}

}  // namespace
}  // namespace deepseq::serve
