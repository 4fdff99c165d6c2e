// Single-circuit propagation microbenchmark across the Table IV designs,
// nn-executor thread counts and DEEPSEQ_NN_SIMD settings: the
// dependency-counted chain execution core this bench exists to track. For
// every design the bench times DeepSeqModel::embed under
// DEEPSEQ_NN_THREADS-equivalent executors (1 = the sequential path) with
// simd off and on, checks every combination bit-identical to sequential
// scalar, and — for the largest design — verifies gradient bit-identity in
// grad mode, records per-level (per planner flush) timing, and reports the
// structural chain statistics: global syncs the scheduler pays, released
// chains, slab row traffic, chains and the chain-length histogram. A
// record-overhead micro reports ns per recorded op.
//
// Emits a table and micro_propagation.json (bench_util::JsonWriter) with
// `threads` and `simd` dimensions so the perf trajectory of the
// record/plan/execute stack is machine-readable across commits (the repo
// commits a snapshot as BENCH_micro_propagation.json at the root). The
// structural fields (global_syncs, chains, chain_len_histogram) depend
// only on the plans, never on host core count — a 1-core CI box verifies
// them deterministically; only the speedup column needs a multi-core host
// (`hardware_concurrency` is part of the JSON so ~1.0x is
// self-explaining).
//
// Knobs: DEEPSEQ_PROP_THREADS (max thread sweep, default 4),
// DEEPSEQ_PROP_REPS (timing repetitions, default 3), DEEPSEQ_FULL=1 for
// paper-scale designs and model.

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
#include "nn/gradcheck.hpp"
#include "runtime/thread_pool.hpp"

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

void set_simd(bool on) { ::setenv("DEEPSEQ_NN_SIMD", on ? "1" : "0", 1); }

double time_embed(const DeepSeqModel& model, const Design& d,
                  nn::Executor& exec, int reps, nn::Tensor* out,
                  nn::ExecStats* stats = nullptr) {
  nn::ExecutorScope scope(exec);
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const bool trace = stats != nullptr && rep == 0;
    nn::ExecStats local;
    WallTimer t;
    nn::Graph g(/*grad_enabled=*/false);
    nn::Var e;
    if (trace) {
      nn::ExecTraceScope ts(local);
      e = model.embed(g, d.graph, d.workload, 7);
    } else {
      e = model.embed(g, d.graph, d.workload, 7);
    }
    best = std::min(best, t.millis());
    if (trace) *stats = std::move(local);
    if (rep == 0 && out != nullptr) *out = e->value;
  }
  return best;
}

void json_exec_stats(JsonWriter& json, const nn::ExecStats& stats) {
  json.begin_object();
  json.field("flushes", stats.flushes);
  json.field("global_syncs", stats.global_syncs);
  json.field("released_chains", stats.released_chains);
  json.field("chains", stats.chains);
  json.field("steps", stats.steps);
  json.field("fused_ops", stats.fused_ops);
  json.field("parallel_flushes", stats.parallel_flushes);
  json.field("slab_gather_rows", stats.slab_gather_rows);
  json.field("slab_scatter_rows", stats.slab_scatter_rows);
  json.field("simd_lanes", stats.simd_lanes);
  json.key("chain_len_histogram");
  json.begin_object();
  for (int b = 0; b < nn::kChainHistBuckets; ++b)
    json.field(nn::chain_len_bucket_name(b), stats.chain_len_hist[b]);
  json.end_object();
  json.begin_array("flush_ms");
  for (const double ms : stats.flush_ms) json.value(ms);
  json.end_array();
  json.end_object();
}

/// Record-layer overhead: ns to record (not execute) one small op in a
/// steady-state no-grad graph — arena-recycled Ops, inline operand storage.
/// The timer covers only the recording loop; the flush happens on scope
/// exit, outside it. Best of several reps = warm free-list state.
double measure_record_ns_per_op() {
  nn::Executor sequential;
  nn::ExecutorScope scope(sequential);
  nn::Graph g(/*grad_enabled=*/false);
  const nn::Var a = nn::make_constant(nn::Tensor::full(8, 8, 0.5f));
  const nn::Var b = nn::make_constant(nn::Tensor::full(8, 8, 0.25f));
  constexpr int kOps = 4096;
  double best_ms = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    nn::BatchScope batch(g);
    WallTimer t;
    nn::Var x = g.add(a, b);
    for (int k = 1; k < kOps; k += 3) {
      x = g.mul(x, b);
      x = g.add(x, a);
      x = g.sigmoid(x);
    }
    best_ms = std::min(best_ms, t.millis());
  }  // scope exit flushes the recorded chain (excluded from the timer)
  return best_ms * 1e6 / kOps;
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  print_banner("PROPAGATION",
               "single-circuit embed vs nn-executor threads and simd "
               "(record/plan/execute)",
               cfg);

  const int max_threads = static_cast<int>(env_int("DEEPSEQ_PROP_THREADS", 4));
  const int reps = static_cast<int>(env_int("DEEPSEQ_PROP_REPS", 3));
  std::vector<int> sweep{1};
  for (const int t : {2, 4, 8})
    if (t <= max_threads) sweep.push_back(t);

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
  runtime::ThreadPool pool(sweep.back());

  JsonWriter json;
  json.begin_object();
  json.field("bench", "micro_propagation");
  json.field("hidden", cfg.hidden);
  json.field("iterations", cfg.iterations);
  json.field("hardware_concurrency",
             static_cast<int>(std::thread::hardware_concurrency()));
  json.field("largest_design", designs[largest].name);
  json.begin_array("rows");

  std::printf("%-10s | %6s %6s | %7s %4s | %10s | %8s | %5s\n", "design",
              "nodes", "levels", "threads", "simd", "embed ms", "speedup",
              "biteq");
  std::printf("%.*s\n", 76, std::string(76, '-').c_str());

  double largest_best_speedup = 0.0;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const Design& d = designs[i];
    nn::Tensor reference;
    double seq_ms = 0.0;
    for (const int threads : sweep) {
      for (const bool simd : {false, true}) {
        set_simd(simd);
        nn::Executor exec(&pool, threads);
        nn::Tensor embedding;
        nn::ExecStats stats;
        const double ms = time_embed(model, d, exec, reps, &embedding, &stats);
        // Reference: sequential scalar — the schedule every other
        // combination (simd included) must reproduce bit-for-bit.
        const bool is_ref = threads == 1 && !simd;
        const bool identical =
            is_ref ? true : bit_identical(reference, embedding);
        if (is_ref) {
          reference = std::move(embedding);
          seq_ms = ms;
        }
        const double speedup = ms > 0.0 ? seq_ms / ms : 0.0;
        if (i == largest && threads > 1 && simd)
          largest_best_speedup = std::max(largest_best_speedup, speedup);
        std::printf("%-10s | %6zu %6d | %7d %4s | %10.2f | %7.2fx | %5s\n",
                    d.name.c_str(), d.aig.num_nodes(), d.levels, threads,
                    simd ? "yes" : "no", ms, speedup,
                    identical ? "yes" : "NO");
        json.begin_object();
        json.field("design", d.name);
        json.field("nodes", static_cast<std::uint64_t>(d.aig.num_nodes()));
        json.field("levels", d.levels);
        json.field("threads", threads);
        json.field("simd", simd);
        json.field("embed_ms", ms);
        json.field("ns_per_flush",
                   stats.flushes > 0 ? ms * 1e6 / stats.flushes : 0.0);
        json.field("speedup_vs_1t", speedup);
        json.field("bit_identical", identical);
        json.field("global_syncs", stats.global_syncs);
        json.field("released_chains", stats.released_chains);
        json.field("chains", stats.chains);
        json.field("flushes", stats.flushes);
        json.field("slab_gather_rows", stats.slab_gather_rows);
        json.field("slab_scatter_rows", stats.slab_scatter_rows);
        json.field("simd_lanes", stats.simd_lanes);
        json.end_object();
        std::fflush(stdout);
      }
    }
  }
  set_simd(true);
  std::printf("\n");
  json.end_array();  // rows

  // Per-level (per planner flush) structure + timing of the largest design:
  // sequential vs widest executor — the machine-readable shape of where
  // time (and synchronization) goes.
  {
    const Design& d = designs[largest];
    nn::ExecStats stats;
    for (const int threads : {1, sweep.back()}) {
      nn::Executor exec(&pool, threads);
      time_embed(model, d, exec, 1, nullptr, &stats);
      json.key("levels_" + std::to_string(threads) + "t");
      json_exec_stats(json, stats);
    }
    std::printf(
        "%s chain structure at %d threads: %d flushes, %d global syncs, "
        "%d chains, %d steps, %d ops fused\n",
        d.name.c_str(), sweep.back(), stats.flushes, stats.global_syncs,
        stats.chains, stats.steps, stats.fused_ops);
  }

  // Record-layer overhead: arena-allocated, inline-operand op recording.
  {
    const double ns = measure_record_ns_per_op();
    std::printf("record overhead: %.0f ns/op\n", ns);
    json.field("record_ns_per_op", ns);
  }

  // Grad-mode parity on the largest design: loss and every parameter
  // gradient bit-identical between sequential and parallel backward.
  {
    const Design& d = designs[largest];
    const nn::Tensor target_lg(d.graph.num_nodes, 1);
    const auto params = model.params();
    auto run = [&](nn::Executor& exec, std::vector<nn::Tensor>& grads) {
      nn::ExecutorScope scope(exec);
      for (const auto& [name, p] : params) {
        (void)name;
        if (p->has_grad()) p->grad.zero();
      }
      nn::Graph g(/*grad_enabled=*/true);
      const auto out = model.forward(g, d.graph, d.workload, 7);
      const nn::Var loss = g.l1_loss(out.lg, target_lg);
      g.backward(loss);
      grads.clear();
      for (const auto& [name, p] : params) {
        (void)name;
        grads.push_back(p->has_grad()
                            ? p->grad
                            : nn::Tensor(p->value.rows(), p->value.cols()));
      }
      return loss->value.at(0, 0);
    };
    nn::Executor seq;
    nn::Executor par(&pool, sweep.back());
    std::vector<nn::Tensor> g_seq, g_par;
    const float loss_seq = run(seq, g_seq);
    const float loss_par = run(par, g_par);
    bool grads_identical = loss_seq == loss_par && g_seq.size() == g_par.size();
    for (std::size_t k = 0; grads_identical && k < g_seq.size(); ++k)
      grads_identical = bit_identical(g_seq[k], g_par[k]);
    std::printf("grad-mode parity on %s at %d threads: %s\n", d.name.c_str(),
                sweep.back(), grads_identical ? "bit-identical" : "DIVERGED");
    json.field("grad_bit_identical", grads_identical);
  }

  json.field("largest_speedup_at_max_threads", largest_best_speedup);
  json.end_object();
  write_json_file("micro_propagation.json", json.str());
  return 0;
}
