#pragma once

// The ingress layer: a TCP front end over the ShardRouter. One blocking
// accept loop plus one reader thread per connection (the protocol is
// length-prefixed, so a reader just splits frames and dispatches); task
// responses are written back by shard workers under a per-connection write
// lock, so many in-flight requests from one connection complete out of
// order — the request id pairs them up client-side.
//
// A task request's circuit section is looked up, as wire bytes, in a
// CircuitMemo before anything decodes it: a byte-identical repeat reuses
// the circuit and identity decoded the first time, so it pays no decode
// and no hash. The identity goes to ShardRouter::submit with the request.
//
// Endpoints:
//   kTaskRequest   -> kTaskResponse | kErrorResponse (typed: bad request,
//                     overload-queue-full, overload-deadline, shutting-down,
//                     internal)
//   kReloadRequest -> coordinated reload_weights across every shard; the
//                     artifact is resolved "name@hash" against the server's
//                     artifact::Store directory (DEEPSEQ_ARTIFACT_DIR or
//                     ServeConfig::artifact_dir)
//   kStatsRequest  -> one JSON document: per-kind serving counters, per-
//                     shard admission stats and every cache layer's
//                     counters, and the circuit memo's hits/misses — the
//                     health endpoint.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/circuit_memo.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"

namespace deepseq::artifact {
class Store;
}

namespace deepseq::serve {

struct ServeConfig {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back via
  /// Server::port()).
  std::uint16_t port = 0;
  RouterConfig router;
  /// Directory the reload endpoint resolves "name@hash" refs against.
  /// Empty resolves DEEPSEQ_ARTIFACT_DIR (strict fail-fast at construction
  /// when set); empty both ways leaves reloads rejected with kBadRequest.
  std::string artifact_dir;
};

class Server {
 public:
  /// Binds + listens + starts the accept loop. Throws Error when the port
  /// cannot be bound or the artifact directory fails validation.
  explicit Server(const ServeConfig& config);
  /// stop() + joins everything.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the chosen one when config.port was 0).
  std::uint16_t port() const { return port_; }

  /// Stop accepting, shut every connection and shard queue down, join all
  /// threads. In-flight admitted tasks finish and their responses are
  /// written before the connection closes; queued-but-unserved tasks get
  /// typed kShuttingDown errors. Idempotent.
  void stop();

  /// Refresh the reload endpoint's view of the artifact directory (picks
  /// up files dropped since construction). Strict: throws on any invalid
  /// artifact file, keeping the previous view.
  void rescan_artifacts();

  /// The health/stats document served by kStatsRequest.
  std::string stats_json() const;

  ShardRouter& router() { return *router_; }

 private:
  struct Connection {
    int fd = -1;
    std::mutex write_mu;
    std::thread reader;
    std::atomic<bool> open{true};
  };

  void accept_loop();
  void connection_loop(const std::shared_ptr<Connection>& conn);
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const FrameParser::Frame& frame);
  void send_frame(const std::shared_ptr<Connection>& conn, MsgType type,
                  const std::string& payload);
  void send_error(const std::shared_ptr<Connection>& conn,
                  std::uint64_t request_id, ErrorCode code,
                  const std::string& detail);

  ServeConfig config_;
  CircuitMemo memo_;
  std::unique_ptr<ShardRouter> router_;
  std::shared_ptr<const artifact::Store> store_;  // swapped by rescan
  mutable std::mutex store_mu_;
  /// Serializes reload pushes so two concurrent name@hash pushes cannot
  /// interleave their per-shard swaps.
  std::mutex reload_mu_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;
  bool stopped_ = false;

  mutable std::mutex conns_mu_;
  std::list<std::shared_ptr<Connection>> conns_;
};

}  // namespace deepseq::serve
