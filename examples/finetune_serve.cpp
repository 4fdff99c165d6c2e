// The trainer-to-Session weight pipeline, end to end:
//
//   1. fine-tune a small DeepSeq model briefly on a tiny design,
//   2. save it as a versioned model artifact (manifest + content hash),
//   3. serve the artifact through an api::Session (BackendOptions::artifact),
//   4. assert the Session's task results are bit-identical to invoking the
//      tuned model directly (exit code 1 on any mismatch — CI smoke),
//   5. hot-push the artifact into a running seed-weight Session with
//      Session::reload_weights and show the fingerprint flip.
//
//   finetune_serve [artifact.dsqa]          train + save + serve (default
//                                           path: /tmp/deepseq_tuned.dsqa)
//   DEEPSEQ_ARTIFACT=... finetune_serve     skip training; serve the given
//                                           artifact and verify parity
//                                           against a model rebuilt from it

#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/session.hpp"
#include "artifact/model_io.hpp"
#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "dataset/embedded.hpp"
#include "netlist/aig.hpp"

using namespace deepseq;

namespace {

bool bit_identical(const nn::Tensor& a, const nn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Serve logic/transition probability through a Session built on `artifact`
/// and compare bit-exactly against the tuned model invoked directly.
bool verify_parity(const std::shared_ptr<const artifact::Artifact>& art,
                   const DeepSeqModel& tuned) {
  api::SessionConfig cfg;
  cfg.backends.artifact = art;
  api::Session session(cfg);
  std::printf("session backend: %s, weights %s, fingerprint %016llx\n",
              session.backend().info().name.c_str(),
              session.backend().info().weights.c_str(),
              static_cast<unsigned long long>(
                  session.backend().info().fingerprint));

  const auto circuit = std::make_shared<const Circuit>(
      decompose_to_aig(iscas89_s27()).aig);
  Rng rng(11);
  api::TaskRequest req;
  req.circuit = circuit;
  req.workload = random_workload(*circuit, rng);
  req.init_seed = 7;
  req.task = api::TaskKind::kLogicProb;
  const api::TaskResult lg = session.run_sync(req);
  req.task = api::TaskKind::kTransitionProb;
  const api::TaskResult tr = session.run_sync(req);

  nn::Graph g(false);
  const auto want = tuned.regress(
      g, tuned.embed(g, build_circuit_graph(*circuit), req.workload,
                     req.init_seed));
  const bool lg_ok =
      bit_identical(*lg.as<api::LogicProbOutput>().prob, want.lg->value);
  const bool tr_ok =
      bit_identical(*tr.as<api::TransitionProbOutput>().prob, want.tr->value);
  std::printf("parity vs direct tuned model: logic-prob %s, transition-prob "
              "%s\n",
              lg_ok ? "bit-identical" : "MISMATCH",
              tr_ok ? "bit-identical" : "MISMATCH");
  return lg_ok && tr_ok;
}

}  // namespace

int main(int argc, char** argv) try {
  // Serve-only mode: DEEPSEQ_ARTIFACT names a previously saved artifact.
  if (const auto art = api::artifact_from_env()) {
    std::printf("DEEPSEQ_ARTIFACT set: serving %s weights, content hash "
                "%016llx\n",
                art->manifest.backend_kind.c_str(),
                static_cast<unsigned long long>(art->manifest.content_hash));
    for (const auto& [key, value] : art->manifest.metadata)
      std::printf("  metadata %s = %s\n", key.c_str(), value.c_str());
    DeepSeqModel tuned(art->manifest.model);
    artifact::apply(*art, tuned);
    return verify_parity(art, tuned) ? 0 : 1;
  }

  const std::string path = argc > 1 ? argv[1] : "/tmp/deepseq_tuned.dsqa";

  // 1. Fine-tune briefly on the embedded s27 benchmark.
  const Circuit aig = decompose_to_aig(iscas89_s27()).aig;
  Rng rng(5);
  std::vector<TrainSample> train;
  for (int k = 0; k < 2; ++k) {
    Workload w = random_workload(aig, rng);
    ActivityOptions sim;
    sim.num_cycles = 500;
    train.push_back(make_sample("s27_" + std::to_string(k), aig, std::move(w),
                                sim, rng.next_u64()));
  }
  DeepSeqModel model(ModelConfig::deepseq(/*hidden=*/16, /*t=*/2));
  TrainOptions opt;
  opt.epochs = 1;
  opt.lr = 5e-3f;
  opt.verbose = true;
  Trainer trainer(model, opt);
  std::printf("fine-tuning %s for %d epoch(s) on %zu samples...\n",
              model.config().description().c_str(), opt.epochs, train.size());
  trainer.fit(train);

  // 2. Save the versioned artifact (epoch/loss metadata embedded).
  const std::uint64_t hash = trainer.save_artifact(path);
  std::printf("saved artifact %s (content hash %016llx)\n", path.c_str(),
              static_cast<unsigned long long>(hash));

  // 3 + 4. Serve it through a Session and verify bit-exact parity.
  const auto art = std::make_shared<const artifact::Artifact>(
      artifact::load_artifact(path));
  if (!verify_parity(art, model)) return 1;

  // 5. Hot reload: push the tuned weights into a Session that is already
  // serving seed weights — zero downtime, new fingerprint.
  api::SessionConfig cfg;
  cfg.backends.model = model.config();
  api::Session session(cfg);
  const std::uint64_t before = session.backend().info().fingerprint;
  const std::uint64_t after = session.reload_weights(art);
  std::printf("hot reload: fingerprint %016llx -> %016llx (%s)\n",
              static_cast<unsigned long long>(before),
              static_cast<unsigned long long>(after),
              session.backend().info().weights.c_str());
  return before != after ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "finetune_serve: %s\n", e.what());
  return 1;
}
