#include "serve/protocol.hpp"

#include <cstring>

#include "common/error.hpp"

namespace deepseq::serve {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kOverloadQueueFull: return "overload-queue-full";
    case ErrorCode::kOverloadDeadline: return "overload-deadline";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

// ---- WireWriter ------------------------------------------------------------

void WireWriter::u32(std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out_.append(b, 4);
}

void WireWriter::u64(std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out_.append(b, 8);
}

void WireWriter::f32(float v) {
  std::uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u32(bits);
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s);
}

void WireWriter::bytes(const void* data, std::size_t n) {
  out_.append(static_cast<const char*>(data), n);
}

void WireWriter::patch_u32(std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out_[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
}

// ---- WireReader ------------------------------------------------------------

const void* WireReader::raw(std::size_t n, const char* what) {
  if (size_ - pos_ < n)
    throw Error(std::string("serve wire: truncated while reading ") + what +
                " at offset " + std::to_string(pos_) + " (need " +
                std::to_string(n) + " bytes, have " +
                std::to_string(size_ - pos_) + ")");
  const void* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t WireReader::u8(const char* what) {
  return *static_cast<const std::uint8_t*>(raw(1, what));
}

std::uint32_t WireReader::u32(const char* what) {
  const auto* b = static_cast<const unsigned char*>(raw(4, what));
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t WireReader::u64(const char* what) {
  const auto* b = static_cast<const unsigned char*>(raw(8, what));
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

float WireReader::f32(const char* what) {
  const std::uint32_t bits = u32(what);
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double WireReader::f64(const char* what) {
  const std::uint64_t bits = u64(what);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str(const char* what) {
  const std::uint32_t n = u32(what);
  if (n > kMaxFrameBytes)
    throw Error(std::string("serve wire: implausible string length for ") +
                what + ": " + std::to_string(n));
  const char* p = static_cast<const char*>(raw(n, what));
  return std::string(p, n);
}

std::string_view WireReader::bytes(std::size_t n, const char* what) {
  return {static_cast<const char*>(raw(n, what)), n};
}

void WireReader::expect_done(const char* message_name) const {
  if (pos_ != size_)
    throw Error(std::string("serve wire: ") + std::to_string(size_ - pos_) +
                " trailing bytes after decoding " + message_name);
}

// ---- sub-codecs ------------------------------------------------------------

void encode_circuit(WireWriter& w, const Circuit& c) {
  w.str(c.name());
  w.u32(static_cast<std::uint32_t>(c.num_nodes()));
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    w.u8(static_cast<std::uint8_t>(c.type(v)));
    w.u8(static_cast<std::uint8_t>(c.num_fanins(v)));
    for (int i = 0; i < c.num_fanins(v); ++i)
      w.u32(c.fanin(v, i));
    w.str(c.node_name(v));
  }
  w.u32(static_cast<std::uint32_t>(c.pos().size()));
  for (std::size_t k = 0; k < c.pos().size(); ++k) {
    w.u32(c.pos()[k]);
    w.str(c.po_name(k));
  }
}

Circuit decode_circuit(WireReader& r) {
  Circuit c(r.str("circuit name"));
  const std::uint32_t num_nodes = r.u32("node count");
  // Every node takes at least 6 bytes (type, arity, name length), so a
  // count the rest of the payload cannot hold is rejected before reserve
  // allocates for it.
  if (num_nodes >= kNullNode || num_nodes > r.remaining() / 6)
    throw Error("serve wire: implausible node count " +
                std::to_string(num_nodes));
  c.reserve(num_nodes);
  // One pass in id order: add_gate and add_ff store fanin ids without
  // resolving them, so a fanin may name a later node (FF feedback) before
  // that node exists. One buffer serves every gate's fanins.
  std::vector<NodeId> fanins;
  fanins.reserve(3);
  for (std::uint32_t v = 0; v < num_nodes; ++v) {
    const std::uint8_t type_byte = r.u8("node type");
    if (type_byte >= kNumGateTypes)
      throw Error("serve wire: node " + std::to_string(v) +
                  " has unknown gate type " + std::to_string(type_byte));
    const auto type = static_cast<GateType>(type_byte);
    const int arity = r.u8("fanin count");
    if (arity != gate_arity(type))
      throw Error("serve wire: node " + std::to_string(v) + " (" +
                  std::string(gate_type_name(type)) + ") carries " +
                  std::to_string(arity) + " fanins, type needs " +
                  std::to_string(gate_arity(type)));
    fanins.clear();
    for (int i = 0; i < arity; ++i) {
      const NodeId src = r.u32("fanin id");
      if (src >= num_nodes)
        throw Error("serve wire: node " + std::to_string(v) +
                    " fanin references id " + std::to_string(src) +
                    " beyond node count " + std::to_string(num_nodes));
      fanins.push_back(src);
    }
    std::string name = r.str("node name");
    switch (type) {
      case GateType::kPi: c.add_pi(std::move(name)); break;
      case GateType::kConst0: c.add_const0(std::move(name)); break;
      case GateType::kFf: c.add_ff(fanins[0], std::move(name)); break;
      default: c.add_gate(type, fanins, std::move(name)); break;
    }
  }
  const std::uint32_t num_pos = r.u32("PO count");
  if (num_pos > num_nodes)
    throw Error("serve wire: more POs than nodes");
  for (std::uint32_t k = 0; k < num_pos; ++k) {
    const NodeId node = r.u32("PO node id");
    if (node >= num_nodes)
      throw Error("serve wire: PO references id beyond node count");
    c.add_po(node, r.str("PO name"));
  }
  return c;
}

Circuit decode_circuit_section(std::string_view section) {
  WireReader r(section);
  Circuit c = decode_circuit(r);
  r.expect_done("circuit section");
  return c;
}

void encode_workload(WireWriter& w, const Workload& wl) {
  w.u64(wl.pattern_seed);
  w.u32(static_cast<std::uint32_t>(wl.pi_prob.size()));
  for (double p : wl.pi_prob) w.f64(p);
}

Workload decode_workload(WireReader& r) {
  Workload wl;
  wl.pattern_seed = r.u64("workload seed");
  const std::uint32_t n = r.u32("workload PI count");
  if (static_cast<std::uint64_t>(n) * 8 > kMaxFrameBytes)
    throw Error("serve wire: implausible workload PI count");
  wl.pi_prob.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) wl.pi_prob[i] = r.f64("PI probability");
  return wl;
}

void encode_tensor(WireWriter& w, const nn::Tensor& t) {
  w.u32(static_cast<std::uint32_t>(t.rows()));
  w.u32(static_cast<std::uint32_t>(t.cols()));
  // Raw IEEE-754 bit patterns: the decoded tensor is bit-identical.
  for (std::size_t i = 0; i < t.size(); ++i) w.f32(t.data()[i]);
}

nn::Tensor decode_tensor(WireReader& r) {
  const std::uint32_t rows = r.u32("tensor rows");
  const std::uint32_t cols = r.u32("tensor cols");
  if (static_cast<std::uint64_t>(rows) * cols * 4 > kMaxFrameBytes)
    throw Error("serve wire: implausible tensor shape " +
                std::to_string(rows) + "x" + std::to_string(cols));
  nn::Tensor t(static_cast<int>(rows), static_cast<int>(cols));
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = r.f32("tensor value");
  return t;
}

namespace {

void encode_doubles(WireWriter& w, const std::vector<double>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (double d : v) w.f64(d);
}

std::vector<double> decode_doubles(WireReader& r, const char* what) {
  const std::uint32_t n = r.u32(what);
  if (static_cast<std::uint64_t>(n) * 8 > kMaxFrameBytes)
    throw Error(std::string("serve wire: implausible vector length for ") +
                what);
  std::vector<double> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = r.f64(what);
  return v;
}

std::shared_ptr<const nn::Tensor> decode_tensor_ptr(WireReader& r) {
  return std::make_shared<const nn::Tensor>(decode_tensor(r));
}

void encode_structure(WireWriter& w, const StructuralHash& h) {
  w.u64(h.digest);
  w.u32(h.num_nodes);
  w.u32(h.num_pis);
  w.u32(h.num_pos);
  w.u32(h.num_ffs);
}

StructuralHash decode_structure(WireReader& r) {
  StructuralHash h;
  h.digest = r.u64("structure digest");
  h.num_nodes = r.u32("structure node count");
  h.num_pis = r.u32("structure PI count");
  h.num_pos = r.u32("structure PO count");
  h.num_ffs = r.u32("structure FF count");
  return h;
}

}  // namespace

// ---- messages --------------------------------------------------------------

namespace {

std::string write_task_request(std::uint64_t request_id, api::TaskKind task,
                               const std::string& backend,
                               std::uint64_t init_seed,
                               std::uint32_t deadline_ms,
                               const Circuit& circuit,
                               const Workload& workload) {
  WireWriter w;
  // The request id leads every request payload (before even the version),
  // so a server can address a typed error for an undecodable frame.
  w.u64(request_id);
  w.u32(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(task));
  w.str(backend);
  w.u64(init_seed);
  w.u32(deadline_ms);
  const std::size_t length_at = w.size();
  w.u32(0);
  encode_circuit(w, circuit);
  w.patch_u32(length_at,
              static_cast<std::uint32_t>(w.size() - length_at - 4));
  encode_workload(w, workload);
  return w.take();
}

}  // namespace

std::string encode(const TaskRequestMsg& m) {
  return write_task_request(m.request_id, m.task, m.backend, m.init_seed,
                            m.deadline_ms, m.circuit, m.workload);
}

std::string encode_task_request(std::uint64_t request_id,
                                const api::TaskRequest& request,
                                std::uint32_t deadline_ms) {
  if (!request.circuit)
    throw Error("serve wire: task request without a circuit");
  return write_task_request(request_id, request.task, request.backend,
                            request.init_seed, deadline_ms, *request.circuit,
                            request.workload);
}

TaskRequestView decode_task_request_view(std::string_view payload) {
  WireReader r(payload);
  TaskRequestView m;
  m.request_id = r.u64("request id");
  const std::uint32_t version = r.u32("protocol version");
  if (version != kProtocolVersion)
    throw Error("serve wire: protocol version " + std::to_string(version) +
                " (this server speaks " + std::to_string(kProtocolVersion) +
                ")");
  const std::uint8_t kind = r.u8("task kind");
  if (kind >= 6)
    throw Error("serve wire: unknown task kind " + std::to_string(kind));
  m.task = static_cast<api::TaskKind>(kind);
  m.backend = r.str("backend name");
  m.init_seed = r.u64("init seed");
  m.deadline_ms = r.u32("deadline");
  m.circuit_section =
      r.bytes(r.u32("circuit section length"), "circuit section");
  m.workload = decode_workload(r);
  r.expect_done("TaskRequest");
  return m;
}

TaskRequestMsg decode_task_request(const std::string& payload) {
  TaskRequestView v = decode_task_request_view(payload);
  TaskRequestMsg m;
  m.request_id = v.request_id;
  m.task = v.task;
  m.backend = std::move(v.backend);
  m.init_seed = v.init_seed;
  m.deadline_ms = v.deadline_ms;
  m.circuit = decode_circuit_section(v.circuit_section);
  m.workload = std::move(v.workload);
  return m;
}

std::string encode(const TaskResponseMsg& m) {
  WireWriter w;
  w.u64(m.request_id);
  w.u32(m.shard);
  const api::TaskResult& res = m.result;
  w.u8(static_cast<std::uint8_t>(res.task));
  w.str(res.backend);
  encode_structure(w, res.structure);
  w.u8(static_cast<std::uint8_t>((res.structure_cache_hit ? 1 : 0) |
                                 (res.embedding_cache_hit ? 2 : 0) |
                                 (res.regression_cache_hit ? 4 : 0)));
  w.f64(res.queue_ms);
  w.f64(res.compute_ms);
  w.f64(res.total_ms);
  switch (res.task) {
    case api::TaskKind::kEmbedding:
      encode_tensor(w, *res.as<api::EmbeddingOutput>().embedding);
      break;
    case api::TaskKind::kLogicProb:
      encode_tensor(w, *res.as<api::LogicProbOutput>().prob);
      break;
    case api::TaskKind::kTransitionProb:
      encode_tensor(w, *res.as<api::TransitionProbOutput>().prob);
      break;
    case api::TaskKind::kPower: {
      const auto& out = res.as<api::PowerOutput>();
      w.f64(out.report.total_watts);
      w.f64(out.report.combinational_watts);
      w.f64(out.report.sequential_watts);
      w.f64(out.report.io_watts);
      w.u64(out.report.nets_matched);
      w.u64(out.report.nets_missing);
      encode_doubles(w, out.logic1);
      encode_doubles(w, out.toggle_rate);
      break;
    }
    case api::TaskKind::kReliability: {
      const auto& out = res.as<api::ReliabilityOutput>();
      w.f64(out.circuit_reliability);
      encode_doubles(w, out.node_reliability);
      break;
    }
    case api::TaskKind::kTestability: {
      const auto& out = res.as<api::TestabilityOutput>();
      encode_doubles(w, out.scoap.cc0);
      encode_doubles(w, out.scoap.cc1);
      encode_doubles(w, out.scoap.co);
      w.u32(static_cast<std::uint32_t>(out.scoap.controllability_iterations));
      w.u32(static_cast<std::uint32_t>(out.scoap.observability_iterations));
      break;
    }
  }
  return w.take();
}

TaskResponseMsg decode_task_response(const std::string& payload) {
  WireReader r(payload);
  TaskResponseMsg m;
  m.request_id = r.u64("request id");
  m.shard = r.u32("shard index");
  const std::uint8_t kind = r.u8("task kind");
  if (kind >= 6)
    throw Error("serve wire: unknown task kind " + std::to_string(kind));
  api::TaskResult& res = m.result;
  res.task = static_cast<api::TaskKind>(kind);
  res.backend = r.str("backend name");
  res.structure = decode_structure(r);
  const std::uint8_t hits = r.u8("cache-hit flags");
  res.structure_cache_hit = (hits & 1) != 0;
  res.embedding_cache_hit = (hits & 2) != 0;
  res.regression_cache_hit = (hits & 4) != 0;
  res.queue_ms = r.f64("queue ms");
  res.compute_ms = r.f64("compute ms");
  res.total_ms = r.f64("total ms");
  switch (res.task) {
    case api::TaskKind::kEmbedding:
      res.output = api::EmbeddingOutput{decode_tensor_ptr(r)};
      break;
    case api::TaskKind::kLogicProb:
      res.output = api::LogicProbOutput{decode_tensor_ptr(r)};
      break;
    case api::TaskKind::kTransitionProb:
      res.output = api::TransitionProbOutput{decode_tensor_ptr(r)};
      break;
    case api::TaskKind::kPower: {
      api::PowerOutput out;
      out.report.total_watts = r.f64("total watts");
      out.report.combinational_watts = r.f64("combinational watts");
      out.report.sequential_watts = r.f64("sequential watts");
      out.report.io_watts = r.f64("io watts");
      out.report.nets_matched = r.u64("nets matched");
      out.report.nets_missing = r.u64("nets missing");
      out.logic1 = decode_doubles(r, "logic-1 probabilities");
      out.toggle_rate = decode_doubles(r, "toggle rates");
      res.output = std::move(out);
      break;
    }
    case api::TaskKind::kReliability: {
      api::ReliabilityOutput out;
      out.circuit_reliability = r.f64("circuit reliability");
      out.node_reliability = decode_doubles(r, "node reliability");
      res.output = std::move(out);
      break;
    }
    case api::TaskKind::kTestability: {
      api::TestabilityOutput out;
      out.scoap.cc0 = decode_doubles(r, "cc0");
      out.scoap.cc1 = decode_doubles(r, "cc1");
      out.scoap.co = decode_doubles(r, "co");
      out.scoap.controllability_iterations =
          static_cast<int>(r.u32("controllability iterations"));
      out.scoap.observability_iterations =
          static_cast<int>(r.u32("observability iterations"));
      res.output = std::move(out);
      break;
    }
  }
  r.expect_done("TaskResponse");
  return m;
}

std::string encode(const ErrorResponseMsg& m) {
  WireWriter w;
  w.u64(m.request_id);
  w.u8(static_cast<std::uint8_t>(m.code));
  w.str(m.detail);
  return w.take();
}

ErrorResponseMsg decode_error_response(const std::string& payload) {
  WireReader r(payload);
  ErrorResponseMsg m;
  m.request_id = r.u64("request id");
  const std::uint8_t code = r.u8("error code");
  if (code < 1 || code > 5)
    throw Error("serve wire: unknown error code " + std::to_string(code));
  m.code = static_cast<ErrorCode>(code);
  m.detail = r.str("error detail");
  r.expect_done("ErrorResponse");
  return m;
}

std::string encode(const ReloadRequestMsg& m) {
  WireWriter w;
  w.u64(m.request_id);
  w.str(m.backend);
  w.str(m.artifact_ref);
  return w.take();
}

ReloadRequestMsg decode_reload_request(const std::string& payload) {
  WireReader r(payload);
  ReloadRequestMsg m;
  m.request_id = r.u64("request id");
  m.backend = r.str("backend name");
  m.artifact_ref = r.str("artifact ref");
  r.expect_done("ReloadRequest");
  return m;
}

std::string encode(const ReloadResponseMsg& m) {
  WireWriter w;
  w.u64(m.request_id);
  w.u64(m.fingerprint);
  w.u32(m.shards);
  return w.take();
}

ReloadResponseMsg decode_reload_response(const std::string& payload) {
  WireReader r(payload);
  ReloadResponseMsg m;
  m.request_id = r.u64("request id");
  m.fingerprint = r.u64("fingerprint");
  m.shards = r.u32("shard count");
  r.expect_done("ReloadResponse");
  return m;
}

std::string encode(const StatsRequestMsg& m) {
  WireWriter w;
  w.u64(m.request_id);
  return w.take();
}

StatsRequestMsg decode_stats_request(const std::string& payload) {
  WireReader r(payload);
  StatsRequestMsg m;
  m.request_id = r.u64("request id");
  r.expect_done("StatsRequest");
  return m;
}

std::string encode(const StatsResponseMsg& m) {
  WireWriter w;
  w.u64(m.request_id);
  w.str(m.json);
  return w.take();
}

StatsResponseMsg decode_stats_response(const std::string& payload) {
  WireReader r(payload);
  StatsResponseMsg m;
  m.request_id = r.u64("request id");
  m.json = r.str("stats json");
  r.expect_done("StatsResponse");
  return m;
}

std::string encode_frame(MsgType type, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes)
    throw Error("serve wire: frame payload exceeds " +
                std::to_string(kMaxFrameBytes) + " bytes");
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(payload.data(), payload.size());
  return w.take();
}

void FrameParser::feed(const char* data, std::size_t n) {
  buf_.append(data, n);
}

std::optional<FrameParser::Frame> FrameParser::next() {
  const std::size_t avail = buf_.size() - scan_;
  if (avail < 5) {
    if (scan_ > 0 && avail == 0) {
      buf_.clear();
      scan_ = 0;
    }
    return std::nullopt;
  }
  WireReader header(buf_.data() + scan_, 5);
  const std::uint32_t len = header.u32("frame length");
  if (len > kMaxFrameBytes)
    throw Error("serve wire: frame length " + std::to_string(len) +
                " exceeds the " + std::to_string(kMaxFrameBytes) +
                "-byte limit");
  const std::uint8_t type = header.u8("frame type");
  if (type < 1 || type > 7)
    throw Error("serve wire: unknown frame type " + std::to_string(type));
  if (avail < 5u + len) return std::nullopt;
  Frame f;
  f.type = static_cast<MsgType>(type);
  f.payload.assign(buf_.data() + scan_ + 5, len);
  scan_ += 5u + len;
  // Compact once the consumed prefix dominates, keeping feed() amortized.
  if (scan_ > buf_.size() / 2) {
    buf_.erase(0, scan_);
    scan_ = 0;
  }
  return f;
}

}  // namespace deepseq::serve
