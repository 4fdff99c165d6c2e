// Single-circuit propagation microbenchmark across the Table IV designs.
// For every design the bench times DeepSeqModel::embed — the fused no-grad
// inference pass serving runs — with DEEPSEQ_NN_SIMD off and on, and checks
// both embeddings bit-identical to the grad-mode embedding with scalar
// kernels (the taped pass training runs: one op per level update). On the
// largest design it then times one grad-mode training step (forward, the
// logic-probability L1 head, backward) with its flush and step counts (one
// of each per taped op: the level updates, the final gather, both heads and
// the loss) and the backward pass's share (train_backward_ms).
//
// Emits a table and micro_propagation.json (bench_util::JsonWriter) so the
// perf trajectory is machine-readable across commits (the repo commits a
// snapshot as BENCH_micro_propagation.json at the root); `levels` holds the
// largest design's fused per-sweep timing. Exits 1 when any bit-identity
// check fails.
//
// Knobs: DEEPSEQ_PROP_REPS (embed timing repetitions, default 3),
// DEEPSEQ_FULL=1 for paper-scale designs and model.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/timer.hpp"
#include "core/model.hpp"
#include "dataset/test_designs.hpp"
#include "netlist/aig.hpp"
#include "nn/executor.hpp"
#include "nn/kernels.hpp"

using namespace deepseq;
using namespace deepseq::bench;

namespace {

struct Design {
  std::string name;
  Circuit aig;
  CircuitGraph graph;
  Workload workload;
  int levels = 0;
};

bool bit_identical(const nn::Tensor& a, const nn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void set_simd(bool on) {
  ::setenv("DEEPSEQ_NN_SIMD", on ? "1" : "0", 1);
  nn::kernels::refresh_from_env();
}

/// Best-of-`reps` fused embed; the first rep's output and ExecStats are
/// returned through `out` / `stats`.
double time_embed(const DeepSeqModel& model, const Design& d, int reps,
                  nn::Tensor* out, nn::ExecStats* stats) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    nn::ExecStats local;
    WallTimer t;
    nn::Graph g(/*grad_enabled=*/false);
    nn::Var e;
    if (rep == 0) {
      nn::ExecTraceScope ts(local);
      e = model.embed(g, d.graph, d.workload, 7);
    } else {
      e = model.embed(g, d.graph, d.workload, 7);
    }
    best = std::min(best, t.millis());
    if (rep == 0) {
      *stats = std::move(local);
      *out = e->value;
    }
  }
  return best;
}

/// The grad-mode embedding with scalar kernels, one taped op per level
/// update: the reference every fused embedding must reproduce.
nn::Tensor recorded_embed(const DeepSeqModel& model, const Design& d) {
  set_simd(false);
  nn::Graph g(/*grad_enabled=*/true);
  return model.embed(g, d.graph, d.workload, 7)->value;
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  print_banner("PROPAGATION",
               "single-circuit fused embed vs simd; one grad-mode training "
               "step",
               cfg);

  const int reps = static_cast<int>(env_int("DEEPSEQ_PROP_REPS", 3));

  std::vector<Design> designs;
  for (TestDesign& td :
       build_all_test_designs(default_design_scale(), cfg.eval_seed)) {
    Design d;
    d.name = td.name;
    d.aig = optimize_aig(decompose_to_aig(td.netlist).aig).circuit;
    d.graph = build_circuit_graph(d.aig);
    Rng rng(cfg.eval_seed);
    d.workload = random_workload(d.aig, rng);
    d.levels = static_cast<int>(d.graph.comb_forward.size());
    designs.push_back(std::move(d));
  }
  std::size_t largest = 0;
  for (std::size_t i = 1; i < designs.size(); ++i)
    if (designs[i].aig.num_nodes() > designs[largest].aig.num_nodes())
      largest = i;

  const DeepSeqModel model(ModelConfig::deepseq(cfg.hidden, cfg.iterations));
  bool all_identical = true;

  JsonWriter json;
  json.begin_object();
  json.field("bench", "micro_propagation");
  json.field("hidden", cfg.hidden);
  json.field("iterations", cfg.iterations);
  json.field("hardware_concurrency",
             static_cast<int>(std::thread::hardware_concurrency()));
  json.field("largest_design", designs[largest].name);
  json.begin_array("rows");

  std::printf("%-10s | %6s %6s | %4s | %10s | %8s | %5s\n", "design", "nodes",
              "levels", "simd", "embed ms", "vs scalar", "biteq");
  std::printf("%.*s\n", 64, std::string(64, '-').c_str());

  nn::ExecStats largest_stats;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const Design& d = designs[i];
    const nn::Tensor reference = recorded_embed(model, d);
    double scalar_ms = 0.0;
    for (const bool simd : {false, true}) {
      set_simd(simd);
      nn::Tensor embedding;
      nn::ExecStats stats;
      const double ms = time_embed(model, d, reps, &embedding, &stats);
      const bool identical = bit_identical(reference, embedding);
      all_identical = all_identical && identical;
      if (!simd) scalar_ms = ms;
      const double speedup = ms > 0.0 ? scalar_ms / ms : 0.0;
      std::printf("%-10s | %6zu %6d | %4s | %10.2f | %7.2fx | %5s\n",
                  d.name.c_str(), d.aig.num_nodes(), d.levels,
                  simd ? "yes" : "no", ms, speedup, identical ? "yes" : "NO");
      json.begin_object();
      json.field("design", d.name);
      json.field("nodes", static_cast<std::uint64_t>(d.aig.num_nodes()));
      json.field("levels", d.levels);
      json.field("simd", simd);
      json.field("embed_ms", ms);
      json.field("speedup_vs_scalar", speedup);
      json.field("bit_identical", identical);
      json.field("flushes", stats.flushes);
      json.field("steps", stats.steps);
      json.field("slab_gather_rows", stats.slab_gather_rows);
      json.field("simd_lanes", stats.simd_lanes);
      json.end_object();
      std::fflush(stdout);
      if (i == largest && simd) largest_stats = std::move(stats);
    }
  }
  set_simd(true);
  std::printf("\n");
  json.end_array();  // rows

  // Per-sweep timing of the largest design's fused pass (SIMD on).
  json.key("levels");
  json.begin_object();
  json.field("flushes", largest_stats.flushes);
  json.field("steps", largest_stats.steps);
  json.begin_array("flush_ms");
  for (const double ms : largest_stats.flush_ms) json.value(ms);
  json.end_array();
  json.end_object();

  // One grad-mode training step on the largest design: forward, the
  // logic-probability L1 head and backward, with its flush and step counts
  // and the time nn::run_backward took.
  {
    const Design& d = designs[largest];
    const nn::Tensor target_lg(d.graph.num_nodes, 1);
    nn::ExecStats stats;
    WallTimer t;
    {
      nn::ExecTraceScope ts(stats);
      nn::Graph g(/*grad_enabled=*/true);
      const auto out = model.forward(g, d.graph, d.workload, 7);
      g.backward(g.l1_loss(out.lg, target_lg));
    }
    const double ms = t.millis();
    double backward_ms = 0.0;
    for (const double b : stats.backward_ms) backward_ms += b;
    std::printf("grad-mode %s training step: %.2f ms (backward %.2f ms), %d flushes, %d steps\n",
                d.name.c_str(), ms, backward_ms, stats.flushes, stats.steps);
    json.field("train_step_ms", ms);
    json.field("train_backward_ms", backward_ms);
    json.field("train_flushes", stats.flushes);
    json.field("train_steps", stats.steps);
  }

  json.field("all_bit_identical", all_identical);
  json.end_object();
  write_json_file("micro_propagation.json", json.str());
  return all_identical ? 0 : 1;
}
