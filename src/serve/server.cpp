#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>

#include "artifact/artifact.hpp"
#include "artifact/store.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace deepseq::serve {
namespace {

/// Ingress request counters: serve.requests.<kind> at arrival, then exactly
/// one of serve.completed.<kind> / serve.failed.<kind> / serve.shed.<kind>
/// (the last bumped by the AdmissionQueue) — the audited identity.
struct RequestMetrics {
  obs::Counter* submitted;
  obs::Counter* completed;
  obs::Counter* failed;
};

const RequestMetrics& request_metrics(int kind) {
  static const std::array<RequestMetrics, kNumTaskKinds> all = [] {
    std::array<RequestMetrics, kNumTaskKinds> a{};
    auto& reg = obs::Registry::global();
    for (int i = 0; i < kNumTaskKinds; ++i) {
      const std::string name = api::task_name(static_cast<api::TaskKind>(i));
      a[static_cast<std::size_t>(i)] =
          RequestMetrics{&reg.counter("serve.requests." + name),
                         &reg.counter("serve.completed." + name),
                         &reg.counter("serve.failed." + name)};
    }
    return a;
  }();
  return all[static_cast<std::size_t>(kind)];
}

ErrorCode error_code_for(ShedReason reason) {
  switch (reason) {
    case ShedReason::kQueueFull: return ErrorCode::kOverloadQueueFull;
    case ShedReason::kDeadline: return ErrorCode::kOverloadDeadline;
    case ShedReason::kShutdown: return ErrorCode::kShuttingDown;
  }
  return ErrorCode::kInternal;
}

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// The request id leads every request payload — recover it from an
/// otherwise undecodable frame so the typed error still reaches the right
/// caller-side future.
std::uint64_t peek_request_id(const std::string& payload) {
  if (payload.size() < 8) return 0;
  WireReader r(payload.data(), 8);
  return r.u64("request_id");
}

}  // namespace

Server::Server(const ServeConfig& config) : config_(config) {
  // Resolve the artifact directory first: a bad DEEPSEQ_ARTIFACT_DIR must
  // fail server construction, not the first reload request.
  if (!config_.artifact_dir.empty()) {
    store_ = std::make_shared<const artifact::Store>(
        artifact::Store::open(config_.artifact_dir));
  } else {
    store_ = artifact::store_from_env();
  }
  router_ = std::make_unique<ShardRouter>(config_.router);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw Error(std::string("serve::Server: socket(): ") +
                std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("serve::Server: cannot listen on 127.0.0.1:" +
                std::to_string(config_.port) + ": " + why);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  acceptor_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  // Unblock accept() first, then stop every connection from producing new
  // requests (SHUT_RD) and join the readers; only then tear the router
  // down — queued jobs are shed typed (kShuttingDown goes out over the
  // still-open write halves), workers finish what they already popped and
  // those responses are written too. fds close last.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::list<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns)
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
  for (auto& conn : conns)
    if (conn->reader.joinable()) conn->reader.join();
  // Destroying the router sheds queued jobs (kShutdown) and joins workers,
  // so every in-flight completion has written its frame once this returns.
  router_.reset();
  for (auto& conn : conns) {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    conn->open.store(false, std::memory_order_relaxed);
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
}

void Server::rescan_artifacts() {
  if (config_.artifact_dir.empty() && store_ == nullptr)
    throw Error("serve::Server: no artifact directory configured");
  const std::string dir =
      config_.artifact_dir.empty() ? store_->dir() : config_.artifact_dir;
  auto fresh =
      std::make_shared<const artifact::Store>(artifact::Store::open(dir));
  std::lock_guard<std::mutex> lock(store_mu_);
  store_ = std::move(fresh);
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or unrecoverable) — stop accepting
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (stopping_.load(std::memory_order_relaxed)) {
        ::close(fd);
        return;
      }
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { connection_loop(conn); });
  }
}

void Server::connection_loop(const std::shared_ptr<Connection>& conn) {
  FrameParser parser;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    try {
      parser.feed(buf, static_cast<std::size_t>(n));
      while (auto frame = parser.next()) handle_frame(conn, *frame);
    } catch (const std::exception& e) {
      // Framing is broken (oversized length prefix, ...): the stream can't
      // be resynchronized, so report once and drop the connection.
      send_error(conn, 0, ErrorCode::kBadRequest, e.what());
      break;
    }
  }
  conn->open.store(false, std::memory_order_relaxed);
}

void Server::send_frame(const std::shared_ptr<Connection>& conn, MsgType type,
                        const std::string& payload) {
  const std::string frame = encode_frame(type, payload);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!conn->open.load(std::memory_order_relaxed)) return;
  if (!write_all(conn->fd, frame.data(), frame.size()))
    conn->open.store(false, std::memory_order_relaxed);
}

void Server::send_error(const std::shared_ptr<Connection>& conn,
                        std::uint64_t request_id, ErrorCode code,
                        const std::string& detail) {
  ErrorResponseMsg msg;
  msg.request_id = request_id;
  msg.code = code;
  msg.detail = detail;
  send_frame(conn, MsgType::kErrorResponse, encode(msg));
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          const FrameParser::Frame& frame) {
  switch (frame.type) {
    case MsgType::kTaskRequest: {
      TaskRequestView msg;
      DecodedCircuit decoded;
      try {
        msg = decode_task_request_view(frame.payload);
        decoded = memo_.lookup(msg.circuit_section);
      } catch (const std::exception& e) {
        send_error(conn, peek_request_id(frame.payload),
                   ErrorCode::kBadRequest, e.what());
        return;
      }
      const int kind = static_cast<int>(msg.task);
      request_metrics(kind).submitted->inc();
      api::TaskRequest request;
      request.circuit = std::move(decoded.circuit);
      request.workload = std::move(msg.workload);
      request.task = msg.task;
      request.backend = std::move(msg.backend);
      request.init_seed = msg.init_seed;
      // deadline_ms is relative to arrival; pin it to the admission clock
      // here so the estimate-vs-deadline comparison is exact.
      const std::uint64_t deadline_ns =
          msg.deadline_ms == 0
              ? 0
              : router_->admission(0).now_ns() +
                    static_cast<std::uint64_t>(msg.deadline_ms) * 1000000ull;
      const std::uint64_t request_id = msg.request_id;
      router_->submit(
          std::move(request), decoded.identity, deadline_ns,
          [this, conn, request_id, kind](RoutedOutcome&& out) {
            if (auto* result = std::get_if<api::TaskResult>(&out.value)) {
              request_metrics(kind).completed->inc();
              TaskResponseMsg resp;
              resp.request_id = request_id;
              resp.shard = static_cast<std::uint32_t>(out.shard);
              resp.result = std::move(*result);
              send_frame(conn, MsgType::kTaskResponse, encode(resp));
            } else if (auto* shed = std::get_if<ShedReason>(&out.value)) {
              send_error(conn, request_id, error_code_for(*shed),
                         std::string("shed: ") + shed_reason_name(*shed));
            } else {
              request_metrics(kind).failed->inc();
              std::string what = "unknown error";
              try {
                std::rethrow_exception(
                    std::get<std::exception_ptr>(out.value));
              } catch (const std::exception& e) {
                what = e.what();
              } catch (...) {
              }
              send_error(conn, request_id, ErrorCode::kInternal, what);
            }
          });
      return;
    }
    case MsgType::kReloadRequest: {
      ReloadRequestMsg msg;
      try {
        msg = decode_reload_request(frame.payload);
      } catch (const std::exception& e) {
        send_error(conn, peek_request_id(frame.payload),
                   ErrorCode::kBadRequest, e.what());
        return;
      }
      std::shared_ptr<const artifact::Store> store;
      {
        std::lock_guard<std::mutex> lock(store_mu_);
        store = store_;
      }
      if (store == nullptr) {
        send_error(conn, msg.request_id, ErrorCode::kBadRequest,
                   "no artifact directory configured (set "
                   "DEEPSEQ_ARTIFACT_DIR or ServeConfig::artifact_dir)");
        return;
      }
      std::shared_ptr<const artifact::Artifact> artifact;
      try {
        artifact = store->resolve(msg.artifact_ref);
      } catch (const std::exception& e) {
        send_error(conn, msg.request_id, ErrorCode::kBadRequest, e.what());
        return;
      }
      try {
        std::lock_guard<std::mutex> lock(reload_mu_);
        ReloadResponseMsg resp;
        resp.request_id = msg.request_id;
        resp.fingerprint = router_->reload_all(artifact, msg.backend);
        resp.shards = static_cast<std::uint32_t>(router_->num_shards());
        send_frame(conn, MsgType::kReloadResponse, encode(resp));
      } catch (const std::exception& e) {
        send_error(conn, msg.request_id, ErrorCode::kInternal, e.what());
      }
      return;
    }
    case MsgType::kStatsRequest: {
      StatsRequestMsg msg;
      try {
        msg = decode_stats_request(frame.payload);
      } catch (const std::exception& e) {
        send_error(conn, peek_request_id(frame.payload),
                   ErrorCode::kBadRequest, e.what());
        return;
      }
      StatsResponseMsg resp;
      resp.request_id = msg.request_id;
      resp.json = stats_json();
      send_frame(conn, MsgType::kStatsResponse, encode(resp));
      return;
    }
    default:
      send_error(conn, peek_request_id(frame.payload), ErrorCode::kBadRequest,
                 "unexpected message type " +
                     std::to_string(static_cast<int>(frame.type)));
      return;
  }
}

std::string Server::stats_json() const {
  auto cache_json = [](const runtime::CacheCounters& c) {
    return "{\"hits\":" + std::to_string(c.hits) +
           ",\"misses\":" + std::to_string(c.misses) +
           ",\"evictions\":" + std::to_string(c.evictions) + "}";
  };
  std::string out = "{\"port\":" + std::to_string(port_) +
                    ",\"shards\":" + std::to_string(router_->num_shards()) +
                    ",\"per_shard\":[";
  for (int s = 0; s < router_->num_shards(); ++s) {
    const ShardRouter::ShardStats st = router_->shard_stats(s);
    if (s > 0) out += ",";
    std::string admitted, shed;
    for (int k = 0; k < kNumTaskKinds; ++k) {
      if (k > 0) {
        admitted += ",";
        shed += ",";
      }
      admitted += std::to_string(st.admission.admitted[static_cast<std::size_t>(k)]);
      shed += std::to_string(st.admission.shed[static_cast<std::size_t>(k)]);
    }
    out += "{\"queued\":" + std::to_string(st.queued) +
           ",\"served\":" + std::to_string(st.served) +
           ",\"admitted\":[" + admitted + "],\"shed\":[" + shed +
           "],\"structures\":" + cache_json(st.cache.structures) +
           ",\"embeddings\":" + cache_json(st.cache.embeddings) +
           ",\"regressions\":" + cache_json(st.cache.regressions) +
           ",\"power\":" + cache_json(st.cache.powers) +
           ",\"scoap\":" + cache_json(st.cache.scoaps) + "}";
  }
  out += "],\"requests\":{";
  for (int k = 0; k < kNumTaskKinds; ++k) {
    const RequestMetrics& m = request_metrics(k);
    if (k > 0) out += ",";
    out += std::string("\"") + api::task_name(static_cast<api::TaskKind>(k)) +
           "\":{\"submitted\":" + std::to_string(m.submitted->value()) +
           ",\"completed\":" + std::to_string(m.completed->value()) +
           ",\"failed\":" + std::to_string(m.failed->value()) + "}";
  }
  // Circuit-memo lookups: a miss decodes a circuit section and hashes the
  // circuit once; a hit reuses both.
  obs::Registry& reg = obs::Registry::global();
  out += "},\"structure_memo\":{\"hits\":" +
         std::to_string(reg.counter("serve.structure_memo.hits").value()) +
         ",\"misses\":" +
         std::to_string(reg.counter("serve.structure_memo.misses").value()) +
         "}";
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    if (store_ != nullptr)
      out += ",\"artifacts\":" + store_->manifest_json();
  }
  out += "}";
  return out;
}

}  // namespace deepseq::serve
