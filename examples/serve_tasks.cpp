// Multi-task serving demo: one deepseq::api::Session answers every
// TaskKind for the same circuit, one after another — embeddings, per-node
// logic/transition probabilities, model-predicted power, model-only
// reliability, and SCOAP testability — sharing one cached structure
// resolve (and one cached forward pass across the embedding-consuming
// tasks).
//
//   serve_tasks [netlist.bench|.aag|.aig]
//
// Without an argument the embedded s27 benchmark circuit is used.
// DEEPSEQ_BACKEND selects the embedding backend (default deepseq; the
// probability/power/reliability tasks need the deepseq regress heads).

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/session.hpp"
#include "common/rng.hpp"
#include "dataset/embedded.hpp"
#include "netlist/aig.hpp"
#include "netlist/aiger_io.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/verilog_io.hpp"

using namespace deepseq;

namespace {

Circuit load_circuit(const std::string& path) {
  Circuit c;
  if (path.size() > 4 && path.substr(path.size() - 4) == ".aag")
    c = parse_aiger_file(path);
  else if (path.size() > 4 && path.substr(path.size() - 4) == ".aig")
    c = parse_aiger_binary_file(path);
  else if (path.size() > 2 && path.substr(path.size() - 2) == ".v")
    c = parse_verilog_file(path);  // streaming chunked frontend (src/ingest/)
  else
    c = parse_bench_file(path);
  c.validate();
  if (!c.is_strict_aig()) c = decompose_to_aig(c).aig;
  return c;
}

}  // namespace

int main(int argc, char** argv) try {
  Circuit circuit = argc > 1 ? load_circuit(argv[1])
                             : decompose_to_aig(iscas89_s27()).aig;
  auto aig = std::make_shared<const Circuit>(std::move(circuit));
  std::printf("circuit: %zu AIG nodes, %zu PIs, %zu FFs, %zu POs\n",
              aig->num_nodes(), aig->pis().size(), aig->ffs().size(),
              aig->pos().size());

  api::SessionConfig cfg;
  cfg.backend = api::backend_from_env(api::BackendRegistry::global());
  // DEEPSEQ_ARTIFACT swaps fine-tuned weights into the chosen backend.
  cfg.backends = api::options_from_env(cfg.backends);
  api::Session session(cfg);
  std::printf("session backend: %s, weights %s (registered:",
              cfg.backend.c_str(), session.backend().info().weights.c_str());
  for (const std::string& name : session.backend_names())
    std::printf(" %s", name.c_str());
  std::printf(")\n\n");

  Rng rng(11);
  const Workload workload = random_workload(*aig, rng);

  // Run every task kind the backend supports, one after another; they
  // share one structure resolve.
  const api::BackendInfo& info = session.backend().info();
  std::vector<api::TaskKind> tasks = {api::TaskKind::kEmbedding,
                                      api::TaskKind::kTestability};
  if (info.supports_regress) {
    tasks.push_back(api::TaskKind::kLogicProb);
    tasks.push_back(api::TaskKind::kTransitionProb);
    tasks.push_back(api::TaskKind::kPower);
  }
  if (info.supports_reliability) tasks.push_back(api::TaskKind::kReliability);
  for (const api::TaskKind task : tasks) {
    api::TaskRequest req;
    req.circuit = aig;
    req.workload = workload;
    req.task = task;
    req.init_seed = 7;
    const api::TaskResult r = session.run_sync(req);
    std::printf("%-16s %7.2f ms  ", task_name(r.task), r.total_ms);
    switch (r.task) {
      case api::TaskKind::kEmbedding: {
        const auto& out = r.as<api::EmbeddingOutput>();
        std::printf("%d x %d node-state matrix\n", out.embedding->rows(),
                    out.embedding->cols());
        break;
      }
      case api::TaskKind::kLogicProb: {
        const auto& out = r.as<api::LogicProbOutput>();
        double sum = 0.0;
        for (int v = 0; v < out.prob->rows(); ++v) sum += out.prob->at(v, 0);
        std::printf("mean P(node=1) = %.3f\n", sum / out.prob->rows());
        break;
      }
      case api::TaskKind::kTransitionProb: {
        const auto& out = r.as<api::TransitionProbOutput>();
        double sum = 0.0;
        for (int v = 0; v < out.prob->rows(); ++v)
          sum += out.prob->at(v, 0) + out.prob->at(v, 1);
        std::printf("mean toggles/cycle = %.3f\n", sum / out.prob->rows());
        break;
      }
      case api::TaskKind::kPower: {
        const auto& out = r.as<api::PowerOutput>();
        std::printf("predicted %.4f mW (%zu nets)\n", out.report.total_mw(),
                    out.report.nets_matched);
        break;
      }
      case api::TaskKind::kReliability: {
        const auto& out = r.as<api::ReliabilityOutput>();
        std::printf("circuit reliability = %.4f over %zu nodes\n",
                    out.circuit_reliability, out.node_reliability.size());
        break;
      }
      case api::TaskKind::kTestability: {
        const auto& out = r.as<api::TestabilityOutput>();
        double worst = 0.0;
        for (NodeId v = 0; v < aig->num_nodes(); ++v) {
          const double e = out.scoap.fault_effort(v, /*stuck_at=*/false);
          if (e < kScoapInf && e > worst) worst = e;
        }
        std::printf("worst finite SCOAP fault effort = %.0f\n", worst);
        break;
      }
    }
  }

  const auto stats = session.cache_stats();
  std::printf("\nstructure resolves: %llu (hits %llu) — all tasks shared "
              "one prepare\n",
              static_cast<unsigned long long>(stats.structures.misses),
              static_cast<unsigned long long>(stats.structures.hits));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "serve_tasks: %s\n", e.what());
  return 1;
}
