// Standalone serving daemon: the fleet unit of deployment. Binds the
// serving tier (src/serve/) on 127.0.0.1 and serves every TaskKind over the
// length-prefixed wire protocol until SIGINT/SIGTERM, with hot weight
// pushes (reload name@hash against DEEPSEQ_ARTIFACT_DIR) and the stats
// endpoint live throughout.
//
//   serve_daemon
//
// Knobs (environment):
//   DEEPSEQ_PORT          TCP port in 0..65535; 0 = ephemeral (default 0)
//   DEEPSEQ_PORT_FILE     write the bound port here — how a supervisor or
//                         CI discovers an ephemeral port      (default off)
//   DEEPSEQ_SHARDS        Session shards, 1..256              (default 2)
//   DEEPSEQ_SERVE_WORKERS worker threads per shard, 1..256    (default 2)
//   DEEPSEQ_QUEUE_DEPTH   per-kind admission queue depth, >= 1 (default 64)
//   DEEPSEQ_HIDDEN        model hidden size, 1..1024          (default 32)
//   DEEPSEQ_T             propagation iterations, 1..64       (default 4)
//                         (HIDDEN and T preset seed-built backends)
//   DEEPSEQ_ARTIFACT_DIR  artifact store the reload endpoint resolves
//                         "name@hash" refs against (strict fail-fast)
//
// The daemon prints one line per lifecycle event and exits 0 on a clean
// signal-driven shutdown (in-flight work drains; queued work is shed typed).
// A knob that is unparsable or out of range exits 1 naming the variable.

#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <string>

#include "common/env.hpp"
#include "serve/server.hpp"

using namespace deepseq;

int main() try {
  // Block the shutdown signals BEFORE any thread exists so every server
  // thread inherits the mask and sigwait below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  serve::ServeConfig cfg;
  cfg.port =
      static_cast<std::uint16_t>(env_int_in("DEEPSEQ_PORT", 0, 0, 65535));
  cfg.router.shards = static_cast<int>(env_int_in("DEEPSEQ_SHARDS", 2, 1, 256));
  cfg.router.workers_per_shard =
      static_cast<int>(env_int_in("DEEPSEQ_SERVE_WORKERS", 2, 1, 256));
  cfg.router.admission.default_depth = static_cast<std::size_t>(env_int_in(
      "DEEPSEQ_QUEUE_DEPTH", 64, 1, std::numeric_limits<std::int64_t>::max()));
  cfg.router.session.backends.model = ModelConfig::deepseq(
      static_cast<int>(env_int_in("DEEPSEQ_HIDDEN", 32, 1, 1024)),
      static_cast<int>(env_int_in("DEEPSEQ_T", 4, 1, 64)));

  serve::Server server(cfg);
  std::printf("[daemon] serving on 127.0.0.1:%u (%d shards x %d workers, "
              "queue depth %zu)\n",
              static_cast<unsigned>(server.port()), cfg.router.shards,
              cfg.router.workers_per_shard, cfg.router.admission.default_depth);
  const std::string port_file = env_string("DEEPSEQ_PORT_FILE", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
    if (!out) {
      std::fprintf(stderr, "[daemon] cannot write port file %s\n",
                   port_file.c_str());
      return 1;
    }
    std::printf("[daemon] port written to %s\n", port_file.c_str());
  }
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::printf("[daemon] signal %d — draining and shutting down\n", sig);
  std::fflush(stdout);
  server.stop();
  std::printf("[daemon] stopped\n");
  return 0;
} catch (const std::exception& e) {
  // e.g. a bad DEEPSEQ_ARTIFACT_DIR — the store fails construction fast,
  // naming the variable and the offending file — or an out-of-range knob.
  std::fprintf(stderr, "serve_daemon: %s\n", e.what());
  return 1;
}
