#pragma once

// Wire protocol of the serving tier: length-prefixed binary frames over a
// byte stream (TCP in practice — the codec itself is transport-agnostic and
// fully covered by in-memory round-trip tests).
//
// Frame layout:  [u32 payload length (LE)] [u8 message type] [payload]
//
// Task request payload (version 2):
//   [u64 request id] [u32 version] [u8 task kind] [str backend]
//   [u64 init seed] [u32 deadline ms] [u32 circuit section length]
//   [circuit section] [workload]
// The length prefix lets a server take the circuit section's bytes without
// decoding them: serve::Server looks them up in its circuit memo, and a
// byte-identical repeat skips the decode and both hashes.
//
// All integers are little-endian; floating-point values travel as their raw
// IEEE-754 bit patterns (u32 for float, u64 for double), so a served result
// is BIT-IDENTICAL to the same computation run in-process — the acceptance
// contract of the tier. Strings are u32 length + bytes. Every decoder is
// bounds-checked and fail-fast: a truncated or oversized frame throws Error
// naming what was being read, never reads past the payload, and must
// consume the payload exactly.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/session.hpp"
#include "netlist/circuit.hpp"
#include "netlist/structural_hash.hpp"
#include "sim/workload.hpp"

namespace deepseq::serve {

/// Protocol revision. A server rejects frames whose request carries a
/// different version (typed kBadRequest error naming both) instead of
/// misparsing them. Version 2 prefixes the request's circuit section with
/// its length.
constexpr std::uint32_t kProtocolVersion = 2;

/// Frames larger than this are rejected by readers before allocation — a
/// corrupt length prefix must not look like a 4 GB message.
constexpr std::uint32_t kMaxFrameBytes = 256u * 1024u * 1024u;

enum class MsgType : std::uint8_t {
  kTaskRequest = 1,
  kTaskResponse = 2,
  kErrorResponse = 3,
  kReloadRequest = 4,
  kReloadResponse = 5,
  kStatsRequest = 6,
  kStatsResponse = 7,
};

/// Typed failure classes a server reports back. kOverload* are the
/// admission-control sheds — the "reject rather than queue unboundedly"
/// half of the tier's contract; clients are expected to back off.
enum class ErrorCode : std::uint8_t {
  kBadRequest = 1,        // undecodable / unsupported version / unknown kind
  kOverloadQueueFull = 2, // bounded per-kind queue at capacity
  kOverloadDeadline = 3,  // estimated queue wait exceeds the deadline
  kShuttingDown = 4,      // server is draining
  kInternal = 5,          // compute raised (message carries what())
};

const char* error_code_name(ErrorCode code);

// ---- byte-level codec ------------------------------------------------------

/// Append-only encoder for one payload.
class WireWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f32(float v);
  void f64(double v);
  void str(const std::string& s);
  void bytes(const void* data, std::size_t n);
  /// Overwrite the u32 written at byte offset `at` (a length prefix whose
  /// value is known only after what it prefixes).
  void patch_u32(std::size_t at, std::uint32_t v);

  std::size_t size() const { return out_.size(); }
  const std::string& data() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked decoder over one payload. Every read throws Error (naming
/// `what` and the offset) on truncation; remaining() must be 0 when a
/// message decoder finishes (decode_* enforce this).
class WireReader {
 public:
  WireReader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit WireReader(std::string_view payload)
      : WireReader(payload.data(), payload.size()) {}

  std::uint8_t u8(const char* what);
  std::uint32_t u32(const char* what);
  std::uint64_t u64(const char* what);
  float f32(const char* what);
  double f64(const char* what);
  std::string str(const char* what);
  /// The next `n` bytes, as a view into the payload.
  std::string_view bytes(std::size_t n, const char* what);

  std::size_t remaining() const { return size_ - pos_; }
  /// Throws unless the payload was consumed exactly.
  void expect_done(const char* message_name) const;

 private:
  const void* raw(std::size_t n, const char* what);

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- messages --------------------------------------------------------------

/// One task query as it travels to the server. The circuit goes over the
/// wire structurally complete (nodes, fanins, interface lists, names — names
/// matter: the power task's SAIF pipeline matches nets by name, and
/// bit-identity to an in-process run requires the same netlist byte for
/// byte).
struct TaskRequestMsg {
  std::uint64_t request_id = 0;
  api::TaskKind task = api::TaskKind::kEmbedding;
  std::string backend;  // registry name; empty = server default
  std::uint64_t init_seed = 1;
  /// Client-side latency budget in milliseconds, measured from server
  /// arrival; 0 = no deadline. Admission control sheds the request (typed
  /// kOverloadDeadline) when its estimated queue wait exceeds this.
  std::uint32_t deadline_ms = 0;
  Circuit circuit;
  Workload workload;
};

/// A task request decoded up to its circuit: every TaskRequestMsg field
/// except the circuit, whose section stays as wire bytes (a view into the
/// payload it was decoded from; valid only while that payload lives).
struct TaskRequestView {
  std::uint64_t request_id = 0;
  api::TaskKind task = api::TaskKind::kEmbedding;
  std::string backend;
  std::uint64_t init_seed = 1;
  std::uint32_t deadline_ms = 0;
  std::string_view circuit_section;
  Workload workload;
};

/// The served result: api::TaskResult plus which shard computed it (the
/// routing observability the bench's per-shard hit rates build on).
struct TaskResponseMsg {
  std::uint64_t request_id = 0;
  std::uint32_t shard = 0;
  api::TaskResult result;
};

struct ErrorResponseMsg {
  std::uint64_t request_id = 0;
  ErrorCode code = ErrorCode::kInternal;
  std::string detail;
};

/// Hot weight push across every shard. `artifact_ref` is resolved against
/// the server's artifact::Store directory: "name@<16-hex-hash>" (unique
/// prefixes accepted) or "name@latest" / bare "name".
struct ReloadRequestMsg {
  std::uint64_t request_id = 0;
  std::string backend;  // registry name; empty = server default
  std::string artifact_ref;
};

struct ReloadResponseMsg {
  std::uint64_t request_id = 0;
  std::uint64_t fingerprint = 0;  // now serving on every shard
  std::uint32_t shards = 0;       // how many shards flipped
};

struct StatsRequestMsg {
  std::uint64_t request_id = 0;
};

struct StatsResponseMsg {
  std::uint64_t request_id = 0;
  std::string json;  // serve::Server::stats_json()
};

// ---- encode / decode -------------------------------------------------------

// Encoders produce the frame payload (no length prefix / type tag — the
// transport layer adds those via encode_frame). Decoders throw Error on any
// structural problem and verify exact payload consumption.

std::string encode(const TaskRequestMsg& m);
/// The same payload as encode(TaskRequestMsg) for these fields, encoded
/// straight from the request's shared circuit (no Circuit copy).
std::string encode_task_request(std::uint64_t request_id,
                                const api::TaskRequest& request,
                                std::uint32_t deadline_ms);
std::string encode(const TaskResponseMsg& m);
std::string encode(const ErrorResponseMsg& m);
std::string encode(const ReloadRequestMsg& m);
std::string encode(const ReloadResponseMsg& m);
std::string encode(const StatsRequestMsg& m);
std::string encode(const StatsResponseMsg& m);

TaskRequestMsg decode_task_request(const std::string& payload);
/// Decodes everything but the circuit section, which it checks only for
/// length. decode_circuit_section() finishes the job.
TaskRequestView decode_task_request_view(std::string_view payload);
TaskResponseMsg decode_task_response(const std::string& payload);
ErrorResponseMsg decode_error_response(const std::string& payload);
ReloadRequestMsg decode_reload_request(const std::string& payload);
ReloadResponseMsg decode_reload_response(const std::string& payload);
StatsRequestMsg decode_stats_request(const std::string& payload);
StatsResponseMsg decode_stats_response(const std::string& payload);

/// [u32 length][u8 type][payload] — the bytes that go on the socket.
std::string encode_frame(MsgType type, const std::string& payload);

/// Incremental frame splitter for stream transports: feed bytes, take
/// complete frames. Throws Error on an oversized length prefix.
class FrameParser {
 public:
  struct Frame {
    MsgType type;
    std::string payload;
  };

  void feed(const char* data, std::size_t n);
  /// One complete frame, if buffered.
  std::optional<Frame> next();

 private:
  std::string buf_;
  std::size_t scan_ = 0;  // consumed prefix, compacted lazily
};

// ---- shared sub-codecs (exposed for tests) ---------------------------------

void encode_circuit(WireWriter& w, const Circuit& c);
Circuit decode_circuit(WireReader& r);
/// decode_circuit over one whole circuit section: throws unless the
/// section holds exactly one circuit.
Circuit decode_circuit_section(std::string_view section);
void encode_workload(WireWriter& w, const Workload& wl);
Workload decode_workload(WireReader& r);
void encode_tensor(WireWriter& w, const nn::Tensor& t);
nn::Tensor decode_tensor(WireReader& r);

}  // namespace deepseq::serve
