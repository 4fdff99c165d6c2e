// Parity of the record/plan/execute pipeline across thread counts: parallel
// execution must be bit-identical to the sequential path — planned
// embeddings, regression heads, loss values, and gradients — for every
// ModelConfig preset, in grad and no-grad modes. Chunk boundaries are fixed
// by the plan and every output element is produced by exactly one chunk
// with the sequential inner-loop order, so equality here is exact (memcmp),
// not approximate.

#include <gtest/gtest.h>

#include <vector>

#include "core/model.hpp"
#include "nn/executor.hpp"
#include "nn/gradcheck.hpp"
#include "nn/op.hpp"
#include "runtime/thread_pool.hpp"
#include "support/nn_parity.hpp"

namespace deepseq {
namespace {

using nn::Graph;
using nn::Tensor;
using nn::Var;
using testsupport::GradRun;
using testsupport::bit_identical;
using testsupport::parity_fixture;
using testsupport::parity_presets;
using testsupport::train_step_with;

/// Everything the executor plans for one model on the fixture: the no-grad
/// regression heads (their input embedding takes the fused pass, which
/// never touches the executor) and the grad-mode planned embedding.
std::vector<Tensor> planned_outputs_with(const DeepSeqModel& model,
                                         nn::Executor& exec) {
  nn::ExecutorScope scope(exec);
  Graph infer(/*grad_enabled=*/false);
  const auto heads =
      model.forward(infer, parity_fixture().graph, parity_fixture().workload, 7);
  Graph train(/*grad_enabled=*/true);
  const Var emb =
      model.embed(train, parity_fixture().graph, parity_fixture().workload, 7);
  return {heads.tr->value, heads.lg->value, emb->value};
}

TEST(Executor, ParallelEmbedBitIdenticalToSequentialForAllPresets) {
  runtime::ThreadPool pool(4);
  nn::Executor sequential;
  for (const ModelConfig& config : parity_presets()) {
    const DeepSeqModel model(config);
    const std::vector<Tensor> reference = planned_outputs_with(model, sequential);
    for (const int threads : {2, 4}) {
      nn::Executor parallel(&pool, threads);
      const std::vector<Tensor> got = planned_outputs_with(model, parallel);
      for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_TRUE(bit_identical(reference[i], got[i]))
            << config.description() << " output " << i << " diverges at "
            << threads << " threads";
    }
  }
}

TEST(Executor, ParallelBackwardBitIdenticalToSequentialForAllPresets) {
  runtime::ThreadPool pool(4);
  nn::Executor sequential;
  for (const ModelConfig& config : parity_presets()) {
    const DeepSeqModel model(config);
    const GradRun reference = train_step_with(model, sequential);
    for (const int threads : {2, 4}) {
      nn::Executor parallel(&pool, threads);
      const GradRun got = train_step_with(model, parallel);
      EXPECT_EQ(reference.loss, got.loss) << config.description();
      ASSERT_EQ(reference.grads.size(), got.grads.size());
      for (std::size_t i = 0; i < reference.grads.size(); ++i)
        EXPECT_TRUE(bit_identical(reference.grads[i], got.grads[i]))
            << config.description() << " grad " << i << " diverges at "
            << threads << " threads";
    }
  }
}

TEST(Executor, ParallelCutsActuallyDispatch) {
  // Guard against silently testing the inline path only: at 4 threads the
  // deepseq preset's grad-mode forward pass on this fixture (the planned
  // path training runs; no-grad embeds take the fused pass) must enlist
  // pool helpers for at least one flush, and chain fusion must actually
  // fuse ops (multi-op chains) rather than degenerate to one op per task.
  runtime::ThreadPool pool(4);
  nn::Executor parallel(&pool, 4);
  nn::ExecStats stats;
  {
    nn::ExecutorScope scope(parallel);
    nn::ExecTraceScope trace(stats);
    const DeepSeqModel model(ModelConfig::deepseq(32, 2));
    Graph g(/*grad_enabled=*/true);
    model.forward(g, parity_fixture().graph, parity_fixture().workload, 7);
  }
  EXPECT_GT(stats.flushes, 0);
  EXPECT_GT(stats.parallel_flushes, 0);
  EXPECT_GT(stats.chains, 0);
  EXPECT_GT(stats.fused_ops, 0);  // chains longer than one op exist
}

TEST(Executor, GradCheckPassesUnderFourThreads) {
  // DEEPSEQ_NN_THREADS=4 equivalent: analytic gradients computed through
  // chunked backward kernels must match finite differences. Dimensions are
  // sized to cross the split thresholds.
  runtime::ThreadPool pool(4);
  nn::Executor parallel(&pool, 4);
  nn::ExecutorScope scope(parallel);

  Rng rng(5);
  Var w1 = nn::make_param(Tensor::xavier(48, 64, rng));
  Var w2 = nn::make_param(Tensor::xavier(64, 8, rng));
  Var b = nn::make_param(Tensor(1, 8));
  const Tensor x = Tensor::xavier(96, 48, rng);
  const Tensor target = Tensor::full(96, 8, 0.25f);

  auto forward = [&](Graph& g) {
    Var h = g.tanh_(g.matmul(g.constant(x), w1));
    Var out = g.sigmoid(g.add_row(g.matmul(h, w2), b));
    return g.l1_loss(out, target);
  };
  const auto res = nn::grad_check(forward, {{"w1", w1}, {"w2", w2}, {"b", b}});
  EXPECT_LT(res.max_rel_error, 0.05) << "worst: " << res.worst_param;
}

TEST(Executor, GradCheckOnModelLossUnderFourThreads) {
  runtime::ThreadPool pool(4);
  nn::Executor parallel(&pool, 4);
  nn::ExecutorScope scope(parallel);

  const DeepSeqModel model(ModelConfig::deepseq(16, 1));
  const Tensor target_lg(parity_fixture().graph.num_nodes, 1);
  auto forward = [&](Graph& g) {
    const auto out = model.forward(g, parity_fixture().graph, parity_fixture().workload, 3);
    return g.l1_loss(out.lg, target_lg);
  };
  // Subset of backbone params keeps the finite-difference sweep fast.
  nn::NamedParams params = model.params();
  params.resize(4);
  for (const auto& [name, p] : params) {
    (void)name;
    if (p->has_grad()) p->grad.zero();
  }
  const auto res = nn::grad_check(forward, params, 1e-2f, 3);
  EXPECT_LT(res.max_rel_error, 0.05) << "worst: " << res.worst_param;
}

TEST(BatchScope, ValuesMaterializeOnScopeExit) {
  Graph g(false);
  Var a = nn::make_constant(Tensor::full(4, 4, 2.0f));
  Var y;
  {
    nn::BatchScope batch(g);
    y = g.add(a, a);
    // Recorded, not yet executed: shape is known, value is not.
    EXPECT_EQ(y->value.rows(), 4);
  }
  EXPECT_FLOAT_EQ(y->value.at(3, 3), 4.0f);
}

TEST(BatchScope, NestedScopesFlushOnceAtOutermostExit) {
  Graph g(false);
  Var a = nn::make_constant(Tensor::full(2, 2, 1.0f));
  Var z;
  {
    nn::BatchScope outer(g);
    Var y = g.add(a, a);
    {
      nn::BatchScope inner(g);
      z = g.mul(y, y);
    }
    // Inner exit must not flush: y (z's input) is still pending.
  }
  EXPECT_FLOAT_EQ(z->value.at(1, 1), 4.0f);
}

TEST(BatchScope, BackwardInsideBatchFlushesFirst) {
  Graph g(true);
  Var a = nn::make_param(Tensor::full(1, 1, 3.0f));
  nn::BatchScope batch(g);
  Var y = g.mul(a, a);
  g.backward(y);  // must flush pending ops before seeding
  EXPECT_FLOAT_EQ(y->value.at(0, 0), 9.0f);
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 6.0f);
}

TEST(Executor, EnvKnobResolution) {
  // nn_threads_from_env falls back when the variable is unset; the strict
  // env_int parser (PR 2) already rejects trailing garbage.
  EXPECT_GE(nn::nn_threads_from_env(3), 1);
  nn::Executor sequential;
  EXPECT_EQ(sequential.threads(), 1);
  runtime::ThreadPool pool(2);
  nn::Executor two(&pool, 2);
  EXPECT_EQ(two.threads(), 2);
  nn::Executor clamped(&pool, 0);  // <= 1 collapses to the sequential path
  EXPECT_EQ(clamped.threads(), 1);
  EXPECT_EQ(clamped.pool(), nullptr);
}

}  // namespace
}  // namespace deepseq
