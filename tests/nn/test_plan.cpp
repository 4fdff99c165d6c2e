// Structural tests of the chain-fused plan layer, plus the CI perf gates.
//
// The planner's contract has two halves. Structural: a union-find
// "gather-cut" pass fuses maximal single-consumer op chains into chain
// tasks, leaving cuts only at true fan-in/fan-out points — on a pll-shaped
// deep-narrow graph the plans must carry >= 10x fewer chains than kernel
// steps, and dependency-counted scheduling must pay exactly one global
// sync per flush. Both are properties of the plans alone and therefore
// assertable on a 1-core CI box. Behavioral: execution is bit-identical to
// the sequential reference — values and gradients — for every ModelConfig
// preset at 1/2/4 threads and for the degenerate DAG shapes (single op,
// diamond fan-in/out, aliased operands, empty flush).

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/model.hpp"
#include "nn/executor.hpp"
#include "nn/op.hpp"
#include "runtime/thread_pool.hpp"
#include "support/nn_parity.hpp"

namespace deepseq {
namespace {

using nn::Chunk;
using nn::Graph;
using nn::Op;
using nn::OpKind;
using nn::Plan;
using nn::Tensor;
using nn::Var;
using testsupport::GradRun;
using testsupport::bit_identical;
using testsupport::parity_fixture;
using testsupport::parity_presets;
using testsupport::train_step_with;

/// Hand-built op DAGs for direct Plan::build structural checks.
struct OpFactory {
  std::vector<std::unique_ptr<Op>> pool;
  std::vector<Op*> ops;

  Var emit(OpKind kind, std::initializer_list<Var> inputs, int rows,
           int cols) {
    auto op = std::make_unique<Op>();
    op->kind = kind;
    op->inputs = inputs;
    op->scalar = 0.5f;  // kScale factor, harmless elsewhere
    Var out = nn::make_constant(Tensor(rows, cols));
    op->out = out;
    ops.push_back(op.get());
    pool.push_back(std::move(op));
    return out;
  }
};

TEST(Plan, EmptyBatchBuildsEmptyPlan) {
  const Plan plan = Plan::build({}, 4);
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.cuts().empty());
  EXPECT_EQ(plan.global_syncs(), 0u);
}

TEST(Plan, SingleOpIsOneCutOneTask) {
  OpFactory f;
  const Var a = nn::make_constant(Tensor::full(4, 4, 1.0f));
  f.emit(OpKind::kSigmoid, {a}, 4, 4);
  const Plan plan = Plan::build(f.ops, 4);
  EXPECT_EQ(plan.cuts().size(), 1u);
  ASSERT_EQ(plan.tasks().size(), 1u);  // small kernel: no row split
  EXPECT_EQ(plan.tasks()[0].count, 1u);
  EXPECT_EQ(plan.stats().chains, 1u);
}

TEST(Plan, LinearChainFusesToOneTask) {
  // Six small elementwise ops in a single-consumer chain fuse into one cut
  // with one six-step chain task.
  OpFactory f;
  const Var a = nn::make_constant(Tensor::full(4, 4, 1.0f));
  Var x = f.emit(OpKind::kSigmoid, {a}, 4, 4);
  for (int i = 0; i < 5; ++i) x = f.emit(OpKind::kScale, {x}, 4, 4);

  const Plan fused = Plan::build(f.ops, 4);
  EXPECT_EQ(fused.cuts().size(), 1u);
  ASSERT_EQ(fused.tasks().size(), 1u);
  EXPECT_EQ(fused.tasks()[0].count, 6u);
  EXPECT_EQ(fused.stats().chains, 1u);
  EXPECT_EQ(fused.stats().fused_ops, 6u);
  EXPECT_EQ(fused.stats().chain_len_hist[nn::chain_len_bucket(6)], 1u);
}

TEST(Plan, DiamondKeepsFanOutCut) {
  // a -> {b, c} -> d: a's fan-out is a true cut (its two consumers may run
  // concurrently), so a stays alone; b, c and d share one fused chain
  // (every escape of b and c points at d): two cuts.
  OpFactory f;
  const Var leaf = nn::make_constant(Tensor::full(4, 4, 1.0f));
  const Var a = f.emit(OpKind::kSigmoid, {leaf}, 4, 4);
  const Var b = f.emit(OpKind::kScale, {a}, 4, 4);
  const Var c = f.emit(OpKind::kTanh, {a}, 4, 4);
  f.emit(OpKind::kAdd, {b, c}, 4, 4);

  const Plan fused = Plan::build(f.ops, 4);
  EXPECT_EQ(fused.cuts().size(), 2u);
  EXPECT_EQ(fused.stats().chains, 2u);
  EXPECT_EQ(fused.stats().fused_ops, 3u);
}

TEST(Plan, AliasedOperandsPlanOnce) {
  // add(x, x): the producer edge must dedupe — one producer, one consumer,
  // a two-op chain, and execution must read the aliased operand correctly.
  OpFactory f;
  const Var a = nn::make_constant(Tensor::full(4, 4, 1.0f));
  const Var x = f.emit(OpKind::kSigmoid, {a}, 4, 4);
  f.emit(OpKind::kAdd, {x, x}, 4, 4);
  const Plan fused = Plan::build(f.ops, 4);
  EXPECT_EQ(fused.cuts().size(), 1u);
  EXPECT_EQ(fused.stats().fused_ops, 2u);
}

TEST(Plan, WideAlignedChainRowSplitsDeterministically) {
  // A heavy matmul -> add -> sigmoid chain over many rows stays
  // row-splittable after fusion: K row-range tasks in one cut, each
  // carrying every step, covering all rows disjointly.
  OpFactory f;
  const Var x = nn::make_constant(Tensor::full(512, 64, 0.01f));
  const Var w = nn::make_constant(Tensor::full(64, 64, 0.02f));
  const Var m = f.emit(OpKind::kMatmul, {x, w}, 512, 64);
  const Var s = f.emit(OpKind::kAdd, {m, m}, 512, 64);
  f.emit(OpKind::kSigmoid, {s}, 512, 64);

  const int threads = 4;
  const Plan fused = Plan::build(f.ops, threads);
  ASSERT_EQ(fused.cuts().size(), 1u);
  const auto& tasks = fused.tasks();
  ASSERT_EQ(tasks.size(), 4u);  // work >> kSplitWork: split caps at threads
  int rows_covered = 0;
  for (const auto& t : tasks) {
    ASSERT_EQ(t.count, 3u);  // every task carries the whole chain
    const Chunk* steps = fused.steps() + t.first;
    for (std::uint32_t s = 1; s < t.count; ++s) {
      EXPECT_EQ(steps[s].begin, steps[0].begin);  // shared row slice
      EXPECT_EQ(steps[s].end, steps[0].end);
    }
    rows_covered += steps[0].end - steps[0].begin;
  }
  EXPECT_EQ(rows_covered, 512);
}

TEST(Plan, GatherAbsorbsIntoSequentialChainOnlyWhenCheap) {
  // gather reading rows of an in-batch tensor cannot row-split (arbitrary
  // row fan-in), but a narrow chain fuses it sequentially — while a row
  // of heavy aligned work refuses the merge to keep its split.
  OpFactory f;
  const Var a = nn::make_constant(Tensor::full(8, 8, 1.0f));
  const Var x = f.emit(OpKind::kSigmoid, {a}, 8, 8);
  {
    auto op = std::make_unique<Op>();
    op->kind = OpKind::kGather;
    op->inputs = {x};
    for (int r = 0; r < 8; ++r) op->refs.push_back(nn::RowRef{x, 7 - r});
    op->out = nn::make_constant(Tensor(8, 8));
    f.ops.push_back(op.get());
    f.pool.push_back(std::move(op));
  }
  const Plan fused = Plan::build(f.ops, 4);
  EXPECT_EQ(fused.cuts().size(), 1u);  // tiny work: sequential fuse
  EXPECT_EQ(fused.stats().fused_ops, 2u);
}

// ---- behavioral parity: threaded vs sequential ----------------------------
// (fixture, presets and the train step are shared with test_executor.cpp via
// tests/support/nn_parity.hpp so both suites pin the same contract)

TEST(PlanParity, MatchesSequentialForAllPresetsAndThreadCounts) {
  // Embeddings (no-grad: the fused pass) and gradients (grad mode: planned
  // per-level state matrices) bit-identical at threads={1,2,4} for every
  // ModelConfig preset. The reference is the sequential run; everything
  // else must memcmp-match it — including the grad-mode embedding, so
  // serving (fused) and training (planned) see the same representation.
  runtime::ThreadPool pool(4);
  auto embed_with = [](const DeepSeqModel& model, nn::Executor& exec,
                       bool grad_enabled = false) {
    nn::ExecutorScope scope(exec);
    Graph g(grad_enabled);
    return model.embed(g, parity_fixture().graph, parity_fixture().workload, 7)
        ->value;
  };
  for (const ModelConfig& config : parity_presets()) {
    const DeepSeqModel model(config);
    nn::Executor sequential;
    const Tensor reference = embed_with(model, sequential);
    EXPECT_TRUE(bit_identical(reference, embed_with(model, sequential, true)))
        << config.description() << " fused embed diverges from planned embed";
    const GradRun ref_grads = train_step_with(model, sequential);

    for (const int threads : {1, 2, 4}) {
      nn::Executor exec(&pool, threads);
      EXPECT_TRUE(bit_identical(reference, embed_with(model, exec)))
          << config.description() << " embed diverges at " << threads
          << " threads";
      const GradRun grads = train_step_with(model, exec);
      EXPECT_EQ(ref_grads.loss, grads.loss)
          << config.description() << " at " << threads << " threads";
      ASSERT_EQ(ref_grads.grads.size(), grads.grads.size());
      for (std::size_t i = 0; i < ref_grads.grads.size(); ++i)
        EXPECT_TRUE(bit_identical(ref_grads.grads[i], grads.grads[i]))
            << config.description() << " grad " << i << " diverges at "
            << threads << " threads";
    }
  }
}

TEST(PlanParity, DegenerateGraphShapesMatchSequential) {
  // Diamond fan-in/out, aliased operands and an empty flush, executed
  // through the Graph at 1 and 4 threads.
  runtime::ThreadPool pool(4);
  auto run = [&](int threads, float* aliased_grad) {
    nn::Executor exec(&pool, threads);
    nn::ExecutorScope scope(exec);
    Graph g(/*grad_enabled=*/true);
    g.flush();  // empty flush: must be a no-op
    Var p = nn::make_param(Tensor::full(3, 3, 0.5f));
    Var a = g.sigmoid(p);
    Var b = g.scale(a, 2.0f);
    Var c = g.tanh_(a);       // diamond fan-out from a
    Var d = g.add(b, c);      // fan-in
    Var e = g.mul(d, d);      // aliased operands
    Var loss = g.l1_loss(e, Tensor(3, 3));
    g.backward(loss);
    *aliased_grad = p->grad.at(1, 1);
    return loss->value.at(0, 0);
  };
  float ref_grad = 0.0f;
  const float ref = run(1, &ref_grad);
  float grad = 0.0f;
  const float loss = run(4, &grad);
  EXPECT_EQ(ref, loss);
  EXPECT_EQ(ref_grad, grad);
}

// ---- the CI structural perf gate -------------------------------------------

TEST(PlanStructure, PllShapedGraphFusesChainsTenfold) {
  // A pll-shaped graph: deep (320 levels) and narrow (16 rows), each level
  // a gather off the previous level's output followed by a thin elementwise
  // chain — the shape whose per-op scheduling erased the early parallel
  // speedup. Fusion must pack at least ten kernel steps into every chain.
  // Plans are built at 4 planner threads regardless of host cores: the
  // assertion is structural, not a timing.
  runtime::ThreadPool pool(4);
  constexpr int kLevels = 320;
  constexpr int kRows = 16;
  constexpr int kLevelsPerFlush = 32;

  auto trace = [&](nn::Executor& exec) {
    nn::ExecutorScope scope(exec);
    nn::ExecStats stats;
    nn::ExecTraceScope ts(stats);
    Graph g(/*grad_enabled=*/false);
    Var h = g.constant(Tensor::full(kRows, 8, 0.3f));
    int level = 0;
    while (level < kLevels) {
      nn::BatchScope group(g);
      for (int k = 0; k < kLevelsPerFlush && level < kLevels; ++k, ++level) {
        std::vector<nn::RowRef> refs;
        for (int r = 0; r < kRows; ++r)
          refs.push_back(nn::RowRef{h, kRows - 1 - r});
        Var x = g.gather(refs);
        for (int i = 0; i < 6; ++i) {
          x = g.scale(x, 1.01f);
          x = g.sigmoid(x);
        }
        h = x;
      }
    }
    return std::pair<nn::ExecStats, Tensor>(std::move(stats), h->value);
  };

  nn::Executor sequential;
  nn::Executor parallel(&pool, 4);
  const auto [seq, seq_out] = trace(sequential);
  const auto [stats, out] = trace(parallel);
  EXPECT_TRUE(bit_identical(seq_out, out));
  ASSERT_GT(stats.chains, 0);
  // The gate: >= 10x fewer chains than steps, independent of core count.
  EXPECT_LE(stats.chains * 10, stats.steps)
      << "chains=" << stats.chains << " steps=" << stats.steps;
  // Fusion actually built long chains, not just fewer one-op tasks.
  EXPECT_GT(stats.fused_ops, (kLevels * 13) / 2);
}

// ---- dependency-counted scheduling -------------------------------------------

TEST(PlanStructure, DepNodesCoverTasksWithProducerFirstEdges) {
  // The dependency layer of a built plan must be a consistent DAG covering
  // every task: task_node maps each task into its node, a node's in_tasks
  // equals the summed task_count of its distinct producers, and consumer
  // ids always exceed producer ids (nodes are emitted producers-first).
  OpFactory f;
  const Var leaf = nn::make_constant(Tensor::full(64, 32, 1.0f));
  const Var w = nn::make_constant(Tensor::full(32, 32, 0.1f));
  Var a = f.emit(OpKind::kMatmul, {leaf, w}, 64, 32);
  const Var b = f.emit(OpKind::kScale, {a}, 64, 32);
  const Var c = f.emit(OpKind::kTanh, {a}, 64, 32);
  const Var d = f.emit(OpKind::kAdd, {b, c}, 64, 32);
  f.emit(OpKind::kSigmoid, {d}, 64, 32);

  const Plan plan = Plan::build(f.ops, 4);
  ASSERT_TRUE(plan.dep_linked());
  const auto& nodes = plan.dep_nodes();
  ASSERT_EQ(plan.task_node().size(), plan.tasks().size());
  std::vector<std::uint32_t> in_tasks(nodes.size(), 0);
  std::uint32_t covered = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    covered += nodes[i].task_count;
    for (std::uint32_t t = 0; t < nodes[i].task_count; ++t)
      EXPECT_EQ(plan.task_node()[nodes[i].first_task + t], i);
    for (std::uint32_t c2 = nodes[i].consumers_begin;
         c2 < nodes[i].consumers_end; ++c2) {
      const std::uint32_t peer = plan.dep_consumers()[c2];
      EXPECT_GT(peer, i);  // producers-first emission
      in_tasks[peer] += nodes[i].task_count;
    }
  }
  EXPECT_EQ(covered, plan.tasks().size());
  for (std::size_t i = 0; i < nodes.size(); ++i)
    EXPECT_EQ(nodes[i].in_tasks, in_tasks[i]) << "node " << i;
}

TEST(PlanStructure, UnlinkedPlanIsRejectedAtEveryThreadCount) {
  // A hand-assembled plan that never got a dependency layer would leave the
  // dependency-counted driver with nothing to publish. The executor must
  // fail fast with a typed error instead — on the inline path too, so a
  // 1-thread run can't mask the bug a 4-thread run would hang on. The task
  // work estimates are large enough to cross the parallel-dispatch
  // threshold at 4 threads.
  OpFactory f;
  const Var a = nn::make_constant(Tensor::full(4, 4, 1.0f));
  f.emit(OpKind::kSigmoid, {a}, 4, 4);
  f.emit(OpKind::kTanh, {a}, 4, 4);
  runtime::ThreadPool pool(4);
  for (const int threads : {1, 4}) {
    Plan plan;
    plan.add_cut();
    for (Op* op : f.ops) {
      plan.add_task(std::uint64_t{1} << 20);
      plan.add_step(Chunk{op, 0, 4, nn::kRoleForward});
    }
    ASSERT_FALSE(plan.dep_linked());
    nn::Executor exec(&pool, threads);
    EXPECT_THROW(exec.run(std::move(plan)), Error) << threads << " threads";
  }
}

TEST(PlanStructure, DepSchedulingCollapsesGlobalSyncsToOnePerFlush) {
  // A pll-shaped deep-narrow graph whose plans carry many cuts per flush.
  // Dependency-counted scheduling must pay exactly one global sync per
  // flush — independent of host core count, since the counter is
  // structural.
  runtime::ThreadPool pool(4);
  constexpr int kLevels = 320;
  constexpr int kRows = 16;
  constexpr int kLevelsPerFlush = 32;

  // Each level gathers the previous level AND adds a skip connection from
  // two levels back: the two-consumer fan-out is a true cut chain fusion
  // cannot contract (a purely linear recurrence would fuse whole flushes
  // into single chains, leaving nothing to release).
  auto trace = [&](nn::Executor& exec) {
    nn::ExecutorScope scope(exec);
    nn::ExecStats stats;
    nn::ExecTraceScope ts(stats);
    Graph g(/*grad_enabled=*/false);
    Var prev = g.constant(Tensor::full(kRows, 8, 0.3f));
    Var skip = prev;
    int level = 0;
    while (level < kLevels) {
      nn::BatchScope group(g);
      for (int k = 0; k < kLevelsPerFlush && level < kLevels; ++k, ++level) {
        std::vector<nn::RowRef> refs;
        for (int r = 0; r < kRows; ++r)
          refs.push_back(nn::RowRef{prev, kRows - 1 - r});
        Var x = g.gather(refs);
        for (int i = 0; i < 3; ++i) {
          x = g.scale(x, 1.01f);
          x = g.sigmoid(x);
        }
        x = g.add(x, skip);
        skip = prev;
        prev = x;
      }
    }
    return std::pair<nn::ExecStats, Tensor>(std::move(stats), prev->value);
  };

  nn::Executor sequential;
  nn::Executor parallel(&pool, 4);
  const auto [seq, seq_out] = trace(sequential);
  const auto [dep, dep_out] = trace(parallel);
  EXPECT_TRUE(bit_identical(seq_out, dep_out));
  // One end-of-flush sync per flush, nothing else — however many cuts the
  // plans carry.
  EXPECT_EQ(dep.global_syncs, dep.flushes);
  EXPECT_EQ(dep.flushes, (kLevels + kLevelsPerFlush - 1) / kLevelsPerFlush);
  // Dep scheduling actually released chains downstream of the roots.
  EXPECT_GT(dep.released_chains, 0);
}

}  // namespace
}  // namespace deepseq
