// Serving-tier load client: closed-loop clients driving a running
// serve_daemon over TCP — every request crosses the wire protocol, the
// shard router and admission control, and is served by Session::run_sync
// inside a shard. Reports p50/p99 latency per TaskKind and the shed rate,
// and emits serving_tier.json. The daemon's own knobs (DEEPSEQ_SHARDS,
// DEEPSEQ_SERVE_WORKERS, DEEPSEQ_QUEUE_DEPTH, the model preset) set the
// shape being measured.
//
//   DEEPSEQ_PORT_FILE=/tmp/port ./build/examples/serve_daemon &
//   DEEPSEQ_TIER_CONNECT=$(cat /tmp/port) ./build/bench/serving_tier
//
// Knobs: DEEPSEQ_TIER_CONNECT    "port" or "host:port" of the daemon,
//                                port in 1..65535              (required)
//        DEEPSEQ_TIER_REQUESTS   requests per TaskKind         (default 18)
//        DEEPSEQ_TIER_CLIENTS    closed-loop client threads    (default 4)

#include <array>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "dataset/generator.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/client.hpp"

using namespace deepseq;
using namespace deepseq::bench;

namespace {

constexpr int kKinds = serve::kNumTaskKinds;

struct KindTally {
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> failed{0};
};

struct Target {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// DEEPSEQ_TIER_CONNECT as "port" or "host:port". The port must be all
/// digits in 1..65535; anything else, unset included, throws naming the
/// variable rather than wrapping to some other port.
Target parse_connect(const std::string& value) {
  Target t;
  std::string port = value;
  if (const auto colon = value.rfind(':'); colon != std::string::npos) {
    t.host = value.substr(0, colon);
    port = value.substr(colon + 1);
  }
  unsigned parsed = 0;
  const char* end = port.data() + port.size();
  const auto [ptr, ec] = std::from_chars(port.data(), end, parsed);
  if (t.host.empty() || port.empty() || ec != std::errc() || ptr != end ||
      parsed < 1 || parsed > 65535)
    throw Error("DEEPSEQ_TIER_CONNECT='" + value +
                "': expected \"port\" or \"host:port\" of a running "
                "serve_daemon, port in 1..65535");
  t.port = static_cast<std::uint16_t>(parsed);
  return t;
}

}  // namespace

int main() try {
  const Target target = parse_connect(env_string("DEEPSEQ_TIER_CONNECT", ""));
  const int per_kind = static_cast<int>(env_int("DEEPSEQ_TIER_REQUESTS", 18));
  const int num_clients = static_cast<int>(env_int("DEEPSEQ_TIER_CLIENTS", 4));

  // Servable fleet: small AND/NOT netlists plus bounded workload pools, so
  // repeats are cacheable and shard-local warmth is measurable.
  const int num_circuits = 4, workloads_per_circuit = 2;
  Rng rng(777);
  std::vector<std::shared_ptr<const Circuit>> circuits;
  for (int i = 0; i < num_circuits; ++i) {
    GeneratorSpec spec;
    spec.name = "tier" + std::to_string(i);
    spec.num_pis = 5 + i;
    spec.num_ffs = 3 + i;
    spec.num_gates = 50 + 25 * i;
    for (int t = 0; t < kNumGateTypes; ++t) spec.gate_weights[t] = 0.0;
    spec.gate_weights[static_cast<int>(GateType::kAnd)] = 4.0;
    spec.gate_weights[static_cast<int>(GateType::kNot)] = 2.0;
    circuits.push_back(
        std::make_shared<const Circuit>(generate_circuit(spec, rng)));
  }
  std::vector<std::vector<Workload>> workloads(circuits.size());
  for (std::size_t i = 0; i < circuits.size(); ++i)
    for (int k = 0; k < workloads_per_circuit; ++k)
      workloads[i].push_back(random_workload(*circuits[i], rng));

  std::printf("target: %s:%u, %d clients, %d requests x %d kinds\n\n",
              target.host.c_str(), static_cast<unsigned>(target.port),
              num_clients, per_kind, kKinds);

  // Deterministic request list, kinds interleaved so the per-kind queues
  // and the priority order are all exercised at once.
  std::vector<api::TaskRequest> trace;
  trace.reserve(static_cast<std::size_t>(per_kind) * kKinds);
  Rng trace_rng(4242);
  for (int i = 0; i < per_kind; ++i) {
    for (int k = 0; k < kKinds; ++k) {
      api::TaskRequest r;
      const std::size_t c = trace_rng.uniform_index(circuits.size());
      r.circuit = circuits[c];
      r.workload = workloads[c][trace_rng.uniform_index(workloads_per_circuit)];
      r.task = static_cast<api::TaskKind>(k);
      r.init_seed = 7;
      trace.push_back(std::move(r));
    }
  }

  // Closed-loop drive: each client thread owns one connection and pulls the
  // next request off the shared trace, waiting for every reply. Connections
  // open up front so an unreachable daemon fails the run here, in main.
  std::vector<std::unique_ptr<serve::Client>> connections;
  for (int t = 0; t < num_clients; ++t)
    connections.push_back(
        std::make_unique<serve::Client>(target.port, target.host));
  static std::array<obs::Histogram, kKinds> latency;  // ns
  std::array<KindTally, kKinds> tally;
  std::atomic<std::size_t> cursor{0};
  WallTimer wall;
  std::vector<std::thread> clients;
  clients.reserve(connections.size());
  for (const auto& connection : connections) {
    clients.emplace_back([&, client = connection.get()] {
      while (true) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= trace.size()) break;
        const int kind = static_cast<int>(trace[i].task);
        WallTimer rt;
        try {
          (void)client->run(trace[i]);
          latency[static_cast<std::size_t>(kind)].record(
              static_cast<std::uint64_t>(rt.seconds() * 1e9));
          tally[static_cast<std::size_t>(kind)].completed.fetch_add(1);
        } catch (const serve::ServeError& e) {
          if (e.overloaded())
            tally[static_cast<std::size_t>(kind)].shed.fetch_add(1);
          else
            tally[static_cast<std::size_t>(kind)].failed.fetch_add(1);
        } catch (const std::exception&) {
          tally[static_cast<std::size_t>(kind)].failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_s = wall.seconds();

  JsonWriter json;
  json.begin_object();
  json.field("bench", "serving_tier");
  json.field("requests_per_kind", per_kind);
  json.field("clients", num_clients);
  json.field("wall_seconds", wall_s);

  std::printf("%-14s | %9s %6s %6s | %9s %9s %9s\n", "kind", "completed",
              "shed", "fail", "p50 ms", "p99 ms", "max ms");
  std::printf("%.*s\n", 76, std::string(76, '-').c_str());
  std::uint64_t total_completed = 0, total_shed = 0, total_failed = 0;
  json.begin_array("per_kind");
  for (int k = 0; k < kKinds; ++k) {
    const auto& tl = tally[static_cast<std::size_t>(k)];
    const obs::Summary s =
        latency[static_cast<std::size_t>(k)].summary(1e-6);  // ns -> ms
    total_completed += tl.completed.load();
    total_shed += tl.shed.load();
    total_failed += tl.failed.load();
    std::printf("%-14s | %9llu %6llu %6llu | %9.2f %9.2f %9.2f\n",
                api::task_name(static_cast<api::TaskKind>(k)),
                static_cast<unsigned long long>(tl.completed.load()),
                static_cast<unsigned long long>(tl.shed.load()),
                static_cast<unsigned long long>(tl.failed.load()), s.p50,
                s.p99, s.max);
    json.begin_object();
    json.field("kind", api::task_name(static_cast<api::TaskKind>(k)));
    json.field("completed", tl.completed.load());
    json.field("shed", tl.shed.load());
    json.field("failed", tl.failed.load());
    json_summary(json, "latency", s);
    json.end_object();
  }
  json.end_array();

  const std::uint64_t submitted = total_completed + total_shed + total_failed;
  const double shed_rate =
      submitted > 0 ? static_cast<double>(total_shed) / submitted : 0.0;
  const double qps = wall_s > 0 ? total_completed / wall_s : 0.0;
  std::printf("\n%llu submitted, %llu completed, %llu shed (%.1f%%), %llu "
              "failed, %.1f q/s closed-loop\n",
              static_cast<unsigned long long>(submitted),
              static_cast<unsigned long long>(total_completed),
              static_cast<unsigned long long>(total_shed), 100.0 * shed_rate,
              static_cast<unsigned long long>(total_failed), qps);
  json.field("submitted", submitted);
  json.field("completed", total_completed);
  json.field("shed", total_shed);
  json.field("failed", total_failed);
  json.field("shed_rate", shed_rate);
  json.field("closed_loop_qps", qps);
  json.end_object();
  write_json_file("serving_tier.json", json.str());
  return total_completed > 0 ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "serving_tier: %s\n", e.what());
  return 1;
}
