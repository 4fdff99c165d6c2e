#pragma once

// Client half of the serving tier: one TCP connection, many in-flight
// requests. submit() assigns a request id, writes the frame under a write
// lock and parks a promise; one background reader thread splits response
// frames and fulfills the matching promise — so N threads (or one
// closed-loop driver) share a single connection without coordination.
// Typed server errors surface as ServeError carrying the wire ErrorCode,
// which is how callers distinguish backpressure (kOverload*) from broken
// requests and compute failures. The reader hands every failure to its
// waiter as a value; the waiting thread constructs and throws the
// exception, so no exception object is ever shared between threads.

#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <variant>

#include "common/error.hpp"
#include "serve/protocol.hpp"

namespace deepseq::serve {

/// A typed error frame from the server. code() tells a caller whether to
/// back off (kOverloadQueueFull / kOverloadDeadline), give up
/// (kShuttingDown) or fix the request (kBadRequest).
class ServeError : public Error {
 public:
  ServeError(ErrorCode code, const std::string& detail)
      : Error(std::string("serve: ") + error_code_name(code) + ": " + detail),
        code_(code) {}
  ErrorCode code() const { return code_; }
  bool overloaded() const {
    return code_ == ErrorCode::kOverloadQueueFull ||
           code_ == ErrorCode::kOverloadDeadline;
  }

 private:
  ErrorCode code_;
};

/// One served task: the result (bit-identical to an in-process run_sync)
/// plus which shard computed it.
struct TaskReply {
  api::TaskResult result;
  int shard = 0;
};

class Client {
 public:
  /// Connect to a serving tier on `host`:`port` (the daemon binds
  /// 127.0.0.1). Throws Error when the connection fails.
  explicit Client(std::uint16_t port, const std::string& host = "127.0.0.1");
  /// Closes the connection; every unfulfilled future gets a ServeError
  /// (kShuttingDown, "connection closed").
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one task; the future carries the reply or throws ServeError /
  /// Error. The future is deferred: get() waits for the reply and throws on
  /// the calling thread. `deadline_ms` is the server-side latency budget
  /// (0 = none) — admission control sheds the request (future throws
  /// ServeError with kOverloadDeadline) when its estimated queue wait
  /// exceeds it.
  std::future<TaskReply> submit(const api::TaskRequest& request,
                                std::uint32_t deadline_ms = 0);

  /// submit + get: the closed-loop call.
  TaskReply run(const api::TaskRequest& request, std::uint32_t deadline_ms = 0);

  /// Coordinated weight push: resolve `artifact_ref` ("name@hash",
  /// "name@latest" or bare name) on the server and flip every shard.
  /// Returns the new serving fingerprint.
  std::uint64_t reload(const std::string& artifact_ref,
                       const std::string& backend = "");

  /// The server's health/stats JSON document.
  std::string stats_json();

 private:
  /// A failed request, as a value: a typed server error (ServeError) or a
  /// client-side one (Error). raise() throws it on the calling thread.
  struct Failure {
    bool typed = false;
    ErrorCode code = ErrorCode::kInternal;
    std::string detail;  // ServeError detail, or the whole Error message
    [[noreturn]] void raise() const;
  };
  template <typename T>
  using Outcome = std::variant<T, Failure>;

  struct Pending {
    std::promise<Outcome<TaskReply>> task;
    std::promise<Outcome<ReloadResponseMsg>> reload;
    std::promise<Outcome<StatsResponseMsg>> stats;
    MsgType kind = MsgType::kTaskRequest;  // which promise is armed
    void fail(Failure f);
  };

  void reader_loop();
  /// Write one framed request; on failure, fail the pending entry and drop
  /// it.
  void send_or_fail(std::uint64_t request_id, const std::string& frame);
  void fail_all(const std::string& why);
  /// Wait for an outcome on the calling thread: its value, or its failure
  /// thrown.
  template <typename T>
  static T take(std::future<Outcome<T>>& future);

  int fd_ = -1;
  std::thread reader_;

  std::mutex write_mu_;
  std::mutex pending_mu_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Pending> pending_;
  bool closed_ = false;  // under pending_mu_
};

}  // namespace deepseq::serve
