#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

namespace deepseq::serve {
namespace {

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

}  // namespace

Client::Client(std::uint16_t port, const std::string& host) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0)
    throw Error(std::string("serve::Client: socket(): ") +
                std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw Error("serve::Client: bad host address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    throw Error("serve::Client: cannot connect to " + host + ":" +
                std::to_string(port) + ": " + why);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  reader_ = std::thread([this] { reader_loop(); });
}

Client::~Client() {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    closed_ = true;
  }
  ::shutdown(fd_, SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
  ::close(fd_);
}

void Client::Failure::raise() const {
  if (typed) throw ServeError(code, detail);
  throw Error(detail);
}

void Client::Pending::fail(Failure f) {
  switch (kind) {
    case MsgType::kTaskRequest: task.set_value(std::move(f)); break;
    case MsgType::kReloadRequest: reload.set_value(std::move(f)); break;
    case MsgType::kStatsRequest: stats.set_value(std::move(f)); break;
    default: break;
  }
}

template <typename T>
T Client::take(std::future<Outcome<T>>& future) {
  Outcome<T> outcome = future.get();
  if (const Failure* f = std::get_if<Failure>(&outcome)) f->raise();
  return std::move(std::get<T>(outcome));
}

void Client::fail_all(const std::string& why) {
  std::map<std::uint64_t, Pending> pending;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    closed_ = true;
    pending.swap(pending_);
  }
  for (auto& [id, p] : pending) p.fail({true, ErrorCode::kShuttingDown, why});
}

void Client::reader_loop() {
  FrameParser parser;
  char buf[64 * 1024];
  std::string why = "connection closed";
  try {
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      parser.feed(buf, static_cast<std::size_t>(n));
      while (auto frame = parser.next()) {
        std::uint64_t id = 0;
        std::optional<Failure> error;
        TaskResponseMsg task;
        ReloadResponseMsg reload;
        StatsResponseMsg stats;
        MsgType got = frame->type;
        switch (frame->type) {
          case MsgType::kTaskResponse:
            task = decode_task_response(frame->payload);
            id = task.request_id;
            break;
          case MsgType::kReloadResponse:
            reload = decode_reload_response(frame->payload);
            id = reload.request_id;
            break;
          case MsgType::kStatsResponse:
            stats = decode_stats_response(frame->payload);
            id = stats.request_id;
            break;
          case MsgType::kErrorResponse: {
            ErrorResponseMsg err = decode_error_response(frame->payload);
            id = err.request_id;
            error = Failure{true, err.code, std::move(err.detail)};
            break;
          }
          default:
            throw Error("serve::Client: unexpected message type " +
                        std::to_string(static_cast<int>(frame->type)));
        }
        Pending p;
        {
          std::lock_guard<std::mutex> lock(pending_mu_);
          auto it = pending_.find(id);
          // An id we don't know (an error frame with id 0, a duplicate) has
          // no waiter — drop it.
          if (it == pending_.end()) continue;
          p = std::move(it->second);
          pending_.erase(it);
        }
        if (error) {
          p.fail(std::move(*error));
        } else if (p.kind == MsgType::kTaskRequest &&
                   got == MsgType::kTaskResponse) {
          TaskReply reply;
          reply.result = std::move(task.result);
          reply.shard = static_cast<int>(task.shard);
          p.task.set_value(std::move(reply));
        } else if (p.kind == MsgType::kReloadRequest &&
                   got == MsgType::kReloadResponse) {
          p.reload.set_value(std::move(reload));
        } else if (p.kind == MsgType::kStatsRequest &&
                   got == MsgType::kStatsResponse) {
          p.stats.set_value(std::move(stats));
        } else {
          p.fail({false, ErrorCode::kInternal,
                  "serve::Client: response type does not match request " +
                      std::to_string(id)});
        }
      }
    }
  } catch (const std::exception& e) {
    why = e.what();
  }
  fail_all(why);
}

void Client::send_or_fail(std::uint64_t request_id, const std::string& frame) {
  bool ok;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    ok = write_all(fd_, frame.data(), frame.size());
  }
  if (ok) return;
  Pending p;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending_.find(request_id);
    if (it != pending_.end()) {
      p = std::move(it->second);
      pending_.erase(it);
      found = true;
    }
  }
  // The reader may have raced us and already failed the entry; only fail
  // what we still own.
  if (found)
    p.fail({false, ErrorCode::kInternal,
            "serve::Client: connection write failed"});
}

std::future<TaskReply> Client::submit(const api::TaskRequest& request,
                                      std::uint32_t deadline_ms) {
  if (!request.circuit)
    throw Error("serve::Client::submit: request without a circuit");
  std::uint64_t request_id = 0;
  std::future<Outcome<TaskReply>> outcome;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (closed_)
      throw ServeError(ErrorCode::kShuttingDown, "client is closed");
    request_id = next_id_++;
    Pending& p = pending_[request_id];
    p.kind = MsgType::kTaskRequest;
    outcome = p.task.get_future();
  }
  send_or_fail(request_id,
               encode_frame(MsgType::kTaskRequest,
                            encode_task_request(request_id, request,
                                                deadline_ms)));
  return std::async(std::launch::deferred,
                    [f = std::move(outcome)]() mutable { return take(f); });
}

TaskReply Client::run(const api::TaskRequest& request,
                      std::uint32_t deadline_ms) {
  return submit(request, deadline_ms).get();
}

std::uint64_t Client::reload(const std::string& artifact_ref,
                             const std::string& backend) {
  ReloadRequestMsg msg;
  msg.backend = backend;
  msg.artifact_ref = artifact_ref;
  std::future<Outcome<ReloadResponseMsg>> outcome;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (closed_)
      throw ServeError(ErrorCode::kShuttingDown, "client is closed");
    msg.request_id = next_id_++;
    Pending& p = pending_[msg.request_id];
    p.kind = MsgType::kReloadRequest;
    outcome = p.reload.get_future();
  }
  send_or_fail(msg.request_id,
               encode_frame(MsgType::kReloadRequest, encode(msg)));
  return take(outcome).fingerprint;
}

std::string Client::stats_json() {
  StatsRequestMsg msg;
  std::future<Outcome<StatsResponseMsg>> outcome;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (closed_)
      throw ServeError(ErrorCode::kShuttingDown, "client is closed");
    msg.request_id = next_id_++;
    Pending& p = pending_[msg.request_id];
    p.kind = MsgType::kStatsRequest;
    outcome = p.stats.get_future();
  }
  send_or_fail(msg.request_id,
               encode_frame(MsgType::kStatsRequest, encode(msg)));
  return take(outcome).json;
}

}  // namespace deepseq::serve
