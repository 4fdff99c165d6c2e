#include "nn/graph.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "nn/gradcheck.hpp"

namespace deepseq::nn {
namespace {

Var param(std::initializer_list<std::initializer_list<float>> rows) {
  std::vector<std::vector<float>> r;
  for (const auto& row : rows) r.emplace_back(row);
  return make_param(Tensor::from_rows(r));
}

TEST(Graph, AddForwardAndBackward) {
  Graph g;
  Var a = param({{1, 2}});
  Var b = param({{3, 4}});
  Var c = g.add(a, b);
  EXPECT_FLOAT_EQ(c->value.at(0, 1), 6.0f);
  g.backward(c);
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(b->grad.at(0, 1), 1.0f);
}

TEST(Graph, SubBackwardNegatesSecond) {
  Graph g;
  Var a = param({{5}});
  Var b = param({{2}});
  Var c = g.sub(a, b);
  g.backward(c);
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(b->grad.at(0, 0), -1.0f);
}

TEST(Graph, MulBackwardIsCrossValue) {
  Graph g;
  Var a = param({{3}});
  Var b = param({{7}});
  g.backward(g.mul(a, b));
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(b->grad.at(0, 0), 3.0f);
}

TEST(Graph, MatmulGradientsMatchFormula) {
  Graph g;
  Var a = param({{1, 2}, {3, 4}});
  Var b = param({{5, 6}, {7, 8}});
  Var c = g.matmul(a, b);
  g.backward(c);
  // dL/dA = 1 * B^T, dL/dB = A^T * 1 (with upstream grad of ones).
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 11.0f);  // 5+6
  EXPECT_FLOAT_EQ(a->grad.at(0, 1), 15.0f);  // 7+8
  EXPECT_FLOAT_EQ(b->grad.at(0, 0), 4.0f);   // 1+3
  EXPECT_FLOAT_EQ(b->grad.at(1, 1), 6.0f);   // 2+4
}

TEST(Graph, GradAccumulatesOnReuse) {
  Graph g;
  Var a = param({{2}});
  Var y = g.add(g.mul(a, a), a);  // y = a^2 + a, dy/da = 2a + 1 = 5
  g.backward(y);
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 5.0f);
}

TEST(Graph, ConstantGetsNoGrad) {
  Graph g;
  Var a = param({{2}});
  Var c = g.constant(Tensor::scalar(10.0f));
  Var y = g.mul(a, c);
  g.backward(y);
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 10.0f);
  EXPECT_FALSE(c->has_grad());
}

TEST(Graph, NoGradModeRecordsNothing) {
  Graph g(false);
  Var a = param({{2}});
  Var y = g.mul(a, a);
  EXPECT_EQ(g.tape_size(), 0u);
  EXPECT_FLOAT_EQ(y->value.at(0, 0), 4.0f);
  EXPECT_THROW(g.backward(y), Error);
}

TEST(Graph, OpsOnPureConstantsAreNotTaped) {
  Graph g(true);
  Var a = g.constant(Tensor::scalar(1.0f));
  Var b = g.constant(Tensor::scalar(2.0f));
  g.add(a, b);
  EXPECT_EQ(g.tape_size(), 0u);
}

TEST(Graph, SigmoidGradient) {
  Graph g;
  Var a = param({{0.0f}});
  Var y = g.sigmoid(a);
  g.backward(y);
  EXPECT_NEAR(a->grad.at(0, 0), 0.25f, 1e-6);  // s(0)(1-s(0)) = 0.25
}

TEST(Graph, TanhGradient) {
  Graph g;
  Var a = param({{0.0f}});
  g.backward(g.tanh_(a));
  EXPECT_NEAR(a->grad.at(0, 0), 1.0f, 1e-6);
}

TEST(Graph, ReluGradientMask) {
  Graph g;
  Var a = param({{-1.0f, 2.0f}});
  g.backward(g.relu(a));
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(a->grad.at(0, 1), 1.0f);
}

TEST(Graph, OneMinus) {
  Graph g;
  Var a = param({{0.3f}});
  Var y = g.one_minus(a);
  EXPECT_NEAR(y->value.at(0, 0), 0.7f, 1e-6);
  g.backward(y);
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), -1.0f);
}

TEST(Graph, ConcatColsSplitsGradients) {
  Graph g;
  Var a = param({{1, 2}});
  Var b = param({{3}});
  Var c = g.concat_cols({a, b});
  EXPECT_EQ(c->value.cols(), 3);
  EXPECT_FLOAT_EQ(c->value.at(0, 2), 3.0f);
  g.backward(c);
  EXPECT_FLOAT_EQ(a->grad.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(b->grad.at(0, 0), 1.0f);
}

TEST(Graph, GatherForwardAndScatterBackward) {
  Graph g;
  Var a = param({{1, 2}, {3, 4}});
  Var b = param({{5, 6}});
  // Gather rows: a[1], b[0], a[1] again (duplicate).
  Var got = g.gather({{a, 1}, {b, 0}, {a, 1}});
  EXPECT_EQ(got->value.rows(), 3);
  EXPECT_FLOAT_EQ(got->value.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(got->value.at(1, 1), 6.0f);
  g.backward(got);
  EXPECT_FLOAT_EQ(a->grad.at(1, 0), 2.0f);  // gathered twice
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(b->grad.at(0, 1), 1.0f);
}

TEST(Graph, GatherRangeChecked) {
  Graph g;
  Var a = param({{1, 2}});
  EXPECT_THROW(g.gather({{a, 3}}), ShapeError);
}

TEST(Graph, SegmentSoftmaxNormalizesPerSegment) {
  Graph g;
  Var s = param({{1.0f}, {2.0f}, {0.5f}, {3.0f}});
  const std::vector<int> seg{0, 0, 1, 1};
  Var y = g.segment_softmax(s, seg, 2);
  EXPECT_NEAR(y->value.at(0, 0) + y->value.at(1, 0), 1.0f, 1e-6);
  EXPECT_NEAR(y->value.at(2, 0) + y->value.at(3, 0), 1.0f, 1e-6);
  EXPECT_GT(y->value.at(1, 0), y->value.at(0, 0));
}

TEST(Graph, SegmentSoftmaxSingletonIsOne) {
  Graph g;
  Var s = param({{-5.0f}});
  Var y = g.segment_softmax(s, {0}, 1);
  EXPECT_NEAR(y->value.at(0, 0), 1.0f, 1e-6);
}

TEST(Graph, SegmentSumForwardBackward) {
  Graph g;
  Var v = param({{1, 1}, {2, 2}, {3, 3}});
  Var y = g.segment_sum(v, {0, 1, 0}, 2);
  EXPECT_FLOAT_EQ(y->value.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y->value.at(1, 0), 2.0f);
  g.backward(y);
  for (int r = 0; r < 3; ++r) EXPECT_FLOAT_EQ(v->grad.at(r, 0), 1.0f);
}

TEST(Graph, MulColBroadcast) {
  Graph g;
  Var v = param({{1, 2}, {3, 4}});
  Var c = param({{2}, {10}});
  Var y = g.mul_col(v, c);
  EXPECT_FLOAT_EQ(y->value.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(y->value.at(1, 0), 30.0f);
  g.backward(y);
  EXPECT_FLOAT_EQ(c->grad.at(0, 0), 3.0f);   // 1+2
  EXPECT_FLOAT_EQ(c->grad.at(1, 0), 7.0f);   // 3+4
  EXPECT_FLOAT_EQ(v->grad.at(1, 1), 10.0f);
}

TEST(Graph, L1LossValueAndGrad) {
  Graph g;
  Var p = param({{1.0f, -1.0f}});
  const Tensor target = Tensor::from_rows({{0.0f, 1.0f}});
  Var loss = g.l1_loss(p, target);
  EXPECT_NEAR(loss->value.at(0, 0), 1.5f, 1e-6);  // (1 + 2)/2
  g.backward(loss);
  EXPECT_FLOAT_EQ(p->grad.at(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(p->grad.at(0, 1), -0.5f);
}

TEST(Graph, WeightedL1IgnoresMaskedEntries) {
  Graph g;
  Var p = param({{1.0f, -1.0f}});
  const Tensor target = Tensor::from_rows({{0.0f, 1.0f}});
  const Tensor weight = Tensor::from_rows({{1.0f, 0.0f}});
  Var loss = g.l1_loss_weighted(p, target, weight);
  EXPECT_NEAR(loss->value.at(0, 0), 1.0f, 1e-6);
  g.backward(loss);
  EXPECT_FLOAT_EQ(p->grad.at(0, 1), 0.0f);
}

TEST(Graph, ClearBreaksLinksButKeepsValues) {
  Graph g;
  Var a = param({{1}});
  Var y = g.add(a, a);
  g.clear();
  EXPECT_EQ(g.tape_size(), 0u);
  EXPECT_FLOAT_EQ(y->value.at(0, 0), 2.0f);
  EXPECT_EQ(y->producer, nullptr);
}

TEST(Graph, SecondBackwardOnOneGraphThrows) {
  // A second walk would re-accumulate through intermediates that still hold
  // the first pass's gradients: y = (2a)^2 at a = 3 gives dy/da = 24, and a
  // second pass on the same tape would leave a.grad at 72 where two Graphs
  // give 48.
  Graph g;
  Var a = param({{3}});
  Var b = g.scale(a, 2.0f);
  Var y = g.mul(b, b);
  g.backward(y);
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 24.0f);
  EXPECT_THROW(g.backward(y), Error);
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 24.0f);

  Graph fresh;
  Var y2 = fresh.mul(fresh.scale(a, 2.0f), fresh.scale(a, 2.0f));
  fresh.backward(y2);  // one backward per Graph: gradients accumulate in a
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 48.0f);
}

TEST(Graph, BackwardSkipsTapedOpsTheRootDoesNotNeed) {
  // Taped ops recorded before the root that it does not consume, and taped
  // ops recorded after it that consume it, get no gradient and pass none on.
  Graph g;
  Var a = param({{2}});
  Var before = param({{5}});
  Var after = param({{7}});
  Var unused = g.sigmoid(g.mul(before, a));
  Var root = g.mul(a, a);
  Var consumer = g.add(g.mul(root, after), before);
  EXPECT_EQ(g.tape_size(), 5u);
  g.backward(root);
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 4.0f);
  EXPECT_FALSE(before->has_grad());
  EXPECT_FALSE(after->has_grad());
  EXPECT_FALSE(unused->has_grad());
  EXPECT_FALSE(consumer->has_grad());
}

TEST(Graph, DeepChainDoesNotOverflowStackOnDestruction) {
  // 200k chained ops would blow the stack under naive recursive shared_ptr
  // destruction; the tape's clear() breaks links iteratively.
  auto g = std::make_unique<Graph>();
  Var a = make_param(Tensor::scalar(0.001f));
  Var x = a;
  for (int i = 0; i < 200000; ++i) x = g->add(x, a);
  EXPECT_EQ(g->tape_size(), 200000u);
  g.reset();  // must not crash
  SUCCEED();
}

// ---- finite-difference verification of composite expressions --------------

TEST(GradCheck, CompositeExpression) {
  Rng rng(12);
  Var w1 = make_param(Tensor::xavier(4, 3, rng));
  Var w2 = make_param(Tensor::xavier(3, 2, rng));
  Var b = make_param(Tensor(1, 2));
  const Tensor x = Tensor::xavier(5, 4, rng);
  const Tensor target = Tensor::full(5, 2, 0.3f);

  auto forward = [&](Graph& g) {
    Var h = g.tanh_(g.matmul(g.constant(x), w1));
    Var out = g.sigmoid(g.add_row(g.matmul(h, w2), b));
    return g.l1_loss(out, target);
  };
  const auto res = grad_check(forward, {{"w1", w1}, {"w2", w2}, {"b", b}});
  EXPECT_LT(res.max_rel_error, 0.05) << "worst: " << res.worst_param;
}

TEST(GradCheck, SegmentSoftmaxAttention) {
  Rng rng(21);
  Var w1 = make_param(Tensor::xavier(3, 1, rng));
  Var w2 = make_param(Tensor::xavier(3, 1, rng));
  const Tensor hu = Tensor::xavier(6, 3, rng);
  const Tensor hv = Tensor::xavier(6, 3, rng);
  const std::vector<int> seg{0, 0, 0, 1, 1, 2};
  const Tensor target = Tensor::full(3, 3, 0.1f);

  auto forward = [&](Graph& g) {
    Var scores = g.add(g.matmul(g.constant(hv), w1), g.matmul(g.constant(hu), w2));
    Var alpha = g.segment_softmax(scores, seg, 3);
    Var m = g.segment_sum(g.mul_col(g.constant(hu), alpha), seg, 3);
    return g.l1_loss(m, target);
  };
  const auto res = grad_check(forward, {{"w1", w1}, {"w2", w2}}, 5e-3f, 3);
  EXPECT_LT(res.max_rel_error, 0.05) << "worst: " << res.worst_param;
}

TEST(GradCheck, GatherMulColPipeline) {
  Rng rng(33);
  Var table = make_param(Tensor::xavier(4, 3, rng));
  Var col = make_param(Tensor::xavier(5, 1, rng));
  const Tensor target = Tensor::full(2, 3, 0.0f);

  auto forward = [&](Graph& g) {
    Var gathered = g.gather({{table, 0}, {table, 2}, {table, 2}, {table, 3}, {table, 1}});
    Var scaled = g.mul_col(gathered, col);
    Var summed = g.segment_sum(scaled, {0, 0, 1, 1, 1}, 2);
    return g.l1_loss(summed, target);
  };
  const auto res = grad_check(forward, {{"table", table}, {"col", col}}, 5e-3f, 6);
  EXPECT_LT(res.max_rel_error, 0.05) << "worst: " << res.worst_param;
}


TEST(GradCheck, DiamondAndAliasedOperands) {
  // A diamond (fan-out from a, fan-in at d) and aliased operands
  // (mul(d, d) scatters twice into d's gradient).
  Rng rng(41);
  Var p = make_param(Tensor::xavier(3, 3, rng));
  auto forward = [&](Graph& g) {
    Var a = g.sigmoid(p);
    Var b = g.scale(a, 2.0f);
    Var c = g.tanh_(a);
    Var d = g.add(b, c);
    Var e = g.mul(d, d);
    return g.l1_loss(e, Tensor(3, 3));
  };
  const auto res = grad_check(forward, {{"p", p}}, 1e-2f, 9);
  EXPECT_LT(res.max_rel_error, 0.05) << "worst: " << res.worst_param;
}

TEST(Graph, SegmentMaxForwardPicksColumnwiseMax) {
  Graph g;
  Var v = param({{1.0f, -2.0f}, {0.5f, 4.0f}, {-3.0f, 0.0f}, {2.0f, 1.0f}});
  Var m = g.segment_max(v, {0, 0, 1, 1}, 2);
  EXPECT_FLOAT_EQ(m->value.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m->value.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(m->value.at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(m->value.at(1, 1), 1.0f);
}

TEST(Graph, SegmentMaxRoutesGradientToArgmaxOnly) {
  Graph g;
  Var v = param({{1.0f, -2.0f}, {0.5f, 4.0f}});
  Var m = g.segment_max(v, {0, 0}, 1);
  g.backward(m);
  EXPECT_FLOAT_EQ(v->grad.at(0, 0), 1.0f);  // col 0 max is row 0
  EXPECT_FLOAT_EQ(v->grad.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(v->grad.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(v->grad.at(1, 1), 1.0f);  // col 1 max is row 1
}

TEST(Graph, SegmentMaxEmptySegmentIsZero) {
  Graph g;
  Var v = param({{3.0f}});
  Var m = g.segment_max(v, {1}, 2);
  EXPECT_FLOAT_EQ(m->value.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m->value.at(1, 0), 3.0f);
}

TEST(Graph, SegmentMaxRejectsSizeMismatch) {
  Graph g;
  Var v = param({{1.0f}, {2.0f}});
  EXPECT_THROW(g.segment_max(v, {0}, 1), ShapeError);
}

TEST(GradCheck, SegmentMaxPipeline) {
  Rng rng(77);
  Var table = make_param(Tensor::xavier(6, 3, rng));
  const std::vector<int> seg{0, 0, 1, 1, 1, 2};
  const Tensor target = Tensor::full(3, 3, 0.2f);
  auto forward = [&](Graph& g) {
    return g.l1_loss(g.segment_max(table, seg, 3), target);
  };
  // Small eps: max is piecewise linear; keep perturbations below the
  // typical gap between competing entries.
  const auto res = grad_check(forward, {{"table", table}}, 1e-3f, 8);
  EXPECT_LT(res.max_rel_error, 0.05) << "worst: " << res.worst_param;
}

TEST(Graph, SoftmaxCrossEntropyUniformLogitsIsLogC) {
  Graph g;
  Var z = param({{0.0f, 0.0f, 0.0f, 0.0f}});
  Var loss = g.softmax_cross_entropy(z, {2});
  EXPECT_NEAR(loss->value.at(0, 0), std::log(4.0f), 1e-5);
}

TEST(Graph, SoftmaxCrossEntropyGradientIsSoftmaxMinusOnehot) {
  Graph g;
  Var z = param({{1.0f, 2.0f, 3.0f}});
  Var loss = g.softmax_cross_entropy(z, {1});
  g.backward(loss);
  const double e1 = std::exp(1.0), e2 = std::exp(2.0), e3 = std::exp(3.0);
  const double denom = e1 + e2 + e3;
  EXPECT_NEAR(z->grad.at(0, 0), e1 / denom, 1e-5);
  EXPECT_NEAR(z->grad.at(0, 1), e2 / denom - 1.0, 1e-5);
  EXPECT_NEAR(z->grad.at(0, 2), e3 / denom, 1e-5);
}

TEST(Graph, SoftmaxCrossEntropyIsShiftInvariant) {
  Graph g;
  Var a = param({{1.0f, -1.0f}});
  Var b = param({{101.0f, 99.0f}});  // same logits + 100
  Var la = g.softmax_cross_entropy(a, {0});
  Var lb = g.softmax_cross_entropy(b, {0});
  EXPECT_NEAR(la->value.at(0, 0), lb->value.at(0, 0), 1e-5);
}

TEST(Graph, SoftmaxCrossEntropyAveragesOverBatch) {
  Graph g;
  Var z = param({{5.0f, 0.0f}, {0.0f, 5.0f}});
  Var good = g.softmax_cross_entropy(z, {0, 1});   // both confident correct
  Var bad = g.softmax_cross_entropy(z, {1, 0});    // both confident wrong
  EXPECT_LT(good->value.at(0, 0), 0.01f);
  EXPECT_GT(bad->value.at(0, 0), 4.0f);
}

TEST(Graph, SoftmaxCrossEntropyRejectsBadLabels) {
  Graph g;
  Var z = param({{0.0f, 0.0f}});
  EXPECT_THROW(g.softmax_cross_entropy(z, {2}), ShapeError);
  EXPECT_THROW(g.softmax_cross_entropy(z, {0, 1}), ShapeError);
}

TEST(GradCheck, SoftmaxCrossEntropyHead) {
  Rng rng(91);
  Var w = make_param(Tensor::xavier(4, 3, rng));
  const Tensor x = Tensor::xavier(5, 4, rng);
  const std::vector<int> labels{0, 2, 1, 1, 0};
  auto forward = [&](Graph& g) {
    return g.softmax_cross_entropy(g.matmul(g.constant(x), w), labels);
  };
  const auto res = grad_check(forward, {{"w", w}}, 5e-3f, 8);
  EXPECT_LT(res.max_rel_error, 0.05) << "worst: " << res.worst_param;
}

}  // namespace
}  // namespace deepseq::nn
