#include "nn/graph.hpp"

#include <unordered_set>

#include "common/error.hpp"
#include "nn/executor.hpp"
#include "nn/op.hpp"

namespace deepseq::nn {

namespace {

Var new_node(Tensor value, bool requires_grad) {
  auto n = std::make_shared<VarNode>();
  n->value = std::move(value);
  n->requires_grad = requires_grad;
  return n;
}

bool any_requires_grad(const InlineInputs& parents) {
  for (const auto& p : parents)
    if (p->requires_grad) return true;
  return false;
}

void check_same_shape(const Var& a, const Var& b, const char* op) {
  if (!a->value.same_shape(b->value))
    throw ShapeError(std::string(op) + ": shape mismatch " +
                     a->value.shape_string() + " vs " + b->value.shape_string());
}

}  // namespace

Var make_param(Tensor value) { return new_node(std::move(value), true); }
Var make_constant(Tensor value) { return new_node(std::move(value), false); }

Var Graph::constant(Tensor value) { return make_constant(std::move(value)); }

Graph::Graph(bool grad_enabled) : grad_enabled_(grad_enabled) {}

Graph::~Graph() { clear(); }

// The record layer's single registration point: the output node is created
// with its final shape (zero-filled — kernels that accumulate rely on it)
// and the op runs at once. Ops whose output needs a gradient stay on the
// tape for backward(); everything else — every op of a no-grad graph, and
// ops of a grad graph whose inputs all lack requires_grad, like the
// per-level feature gathers — releases its references now (dead
// intermediates free early) and returns to the free list with warm member
// vectors.
Var Graph::record(Tensor out, Op* op) {
  const bool needs = grad_enabled_ && any_requires_grad(op->inputs);
  Var n = new_node(std::move(out), needs);
  op->out = n;
  run_forward(*op);
  if (needs) {
    n->producer = op;
    tape_.push_back(op);
  } else {
    recycle(op);
  }
  return n;
}

void Graph::recycle(Op* op) {
  op->out.reset();
  op->inputs.clear();
  op->refs.clear();
  op->segment.clear();
  op->argmax.clear();
  op->num_segments = 0;
  op->scalar = 0.0f;
  if (op->attr_a.size() != 0) op->attr_a = Tensor();
  if (op->attr_b.size() != 0) op->attr_b = Tensor();
  if (op->saved.size() != 0) op->saved = Tensor();
  op->custom.reset();
  free_ops_.push_back(op);
}

Op* Graph::acquire_op(OpKind kind) {
  constexpr std::size_t kArenaBlock = 64;
  Op* op;
  if (!free_ops_.empty()) {
    op = free_ops_.back();
    free_ops_.pop_back();
  } else {
    if (arena_.empty() || arena_used_ == kArenaBlock) {
      arena_.push_back(std::make_unique<Op[]>(kArenaBlock));
      arena_used_ = 0;
    }
    op = &arena_.back()[arena_used_++];
  }
  op->kind = kind;
  return op;
}

Var Graph::add(const Var& a, const Var& b) {
  check_same_shape(a, b, "add");
  auto op = acquire_op(OpKind::kAdd);
  op->inputs = {a, b};
  return record(Tensor(a->value.rows(), a->value.cols()), op);
}

Var Graph::sub(const Var& a, const Var& b) {
  check_same_shape(a, b, "sub");
  auto op = acquire_op(OpKind::kSub);
  op->inputs = {a, b};
  return record(Tensor(a->value.rows(), a->value.cols()), op);
}

Var Graph::mul(const Var& a, const Var& b) {
  check_same_shape(a, b, "mul");
  auto op = acquire_op(OpKind::kMul);
  op->inputs = {a, b};
  return record(Tensor(a->value.rows(), a->value.cols()), op);
}

Var Graph::add_row(const Var& a, const Var& row) {
  if (row->value.rows() != 1 || row->value.cols() != a->value.cols())
    throw ShapeError("add_row: need 1x" + std::to_string(a->value.cols()) +
                     " row vector, got " + row->value.shape_string());
  auto op = acquire_op(OpKind::kAddRow);
  op->inputs = {a, row};
  return record(Tensor(a->value.rows(), a->value.cols()), op);
}

Var Graph::matmul(const Var& a, const Var& b) {
  if (a->value.cols() != b->value.rows())
    throw ShapeError("matmul: inner dimension mismatch " +
                     a->value.shape_string() + " * " + b->value.shape_string());
  auto op = acquire_op(OpKind::kMatmul);
  op->inputs = {a, b};
  return record(Tensor(a->value.rows(), b->value.cols()), op);
}

Var Graph::scale(const Var& a, float s) {
  auto op = acquire_op(OpKind::kScale);
  op->inputs = {a};
  op->scalar = s;
  return record(Tensor(a->value.rows(), a->value.cols()), op);
}

Var Graph::sigmoid(const Var& a) {
  auto op = acquire_op(OpKind::kSigmoid);
  op->inputs = {a};
  return record(Tensor(a->value.rows(), a->value.cols()), op);
}

Var Graph::tanh_(const Var& a) {
  auto op = acquire_op(OpKind::kTanh);
  op->inputs = {a};
  return record(Tensor(a->value.rows(), a->value.cols()), op);
}

Var Graph::relu(const Var& a) {
  auto op = acquire_op(OpKind::kRelu);
  op->inputs = {a};
  return record(Tensor(a->value.rows(), a->value.cols()), op);
}

Var Graph::one_minus(const Var& a) {
  auto op = acquire_op(OpKind::kOneMinus);
  op->inputs = {a};
  return record(Tensor(a->value.rows(), a->value.cols()), op);
}

Var Graph::concat_cols(const std::vector<Var>& blocks) {
  if (blocks.empty()) throw ShapeError("concat_cols: no blocks");
  const int rows = blocks[0]->value.rows();
  int cols = 0;
  for (const auto& b : blocks) {
    if (b->value.rows() != rows) throw ShapeError("concat_cols: row mismatch");
    cols += b->value.cols();
  }
  auto op = acquire_op(OpKind::kConcatCols);
  op->inputs.assign(blocks);
  return record(Tensor(rows, cols), op);
}

Var Graph::gather(const std::vector<RowRef>& refs) {
  if (refs.empty()) throw ShapeError("gather: no rows");
  const int cols = refs[0].var->value.cols();
  for (const auto& r : refs) {
    if (r.var->value.cols() != cols) throw ShapeError("gather: column mismatch");
    if (r.row < 0 || r.row >= r.var->value.rows())
      throw ShapeError("gather: row index out of range");
  }
  auto op = acquire_op(OpKind::kGather);
  op->refs = refs;
  std::unordered_set<VarNode*> seen;
  for (const auto& r : refs)
    if (seen.insert(r.var.get()).second) op->inputs.push_back(r.var);
  return record(Tensor(static_cast<int>(refs.size()), cols), op);
}

Var Graph::segment_softmax(const Var& scores, const std::vector<int>& segment,
                           int num_segments) {
  if (scores->value.cols() != 1)
    throw ShapeError("segment_softmax: scores must be E x 1");
  if (static_cast<int>(segment.size()) != scores->value.rows())
    throw ShapeError("segment_softmax: segment size mismatch");
  auto op = acquire_op(OpKind::kSegmentSoftmax);
  op->inputs = {scores};
  op->segment = segment;
  op->num_segments = num_segments;
  return record(Tensor(scores->value.rows(), 1), op);
}

Var Graph::mul_col(const Var& values, const Var& col) {
  if (col->value.cols() != 1 || col->value.rows() != values->value.rows())
    throw ShapeError("mul_col: col must be E x 1 matching values rows");
  auto op = acquire_op(OpKind::kMulCol);
  op->inputs = {values, col};
  return record(Tensor(values->value.rows(), values->value.cols()), op);
}

Var Graph::segment_sum(const Var& values, const std::vector<int>& segment,
                       int num_segments) {
  if (static_cast<int>(segment.size()) != values->value.rows())
    throw ShapeError("segment_sum: segment size mismatch");
  auto op = acquire_op(OpKind::kSegmentSum);
  op->inputs = {values};
  op->segment = segment;
  op->num_segments = num_segments;
  return record(Tensor(num_segments, values->value.cols()), op);
}

Var Graph::segment_max(const Var& values, const std::vector<int>& segment,
                       int num_segments) {
  if (static_cast<int>(segment.size()) != values->value.rows())
    throw ShapeError("segment_max: segment size mismatch");
  const int cols = values->value.cols();
  auto op = acquire_op(OpKind::kSegmentMax);
  op->inputs = {values};
  op->segment = segment;
  op->num_segments = num_segments;
  op->argmax.assign(static_cast<std::size_t>(num_segments) * cols, -1);
  return record(Tensor(num_segments, cols), op);
}

Var Graph::l1_loss(const Var& pred, const Tensor& target) {
  if (!pred->value.same_shape(target))
    throw ShapeError("l1_loss: prediction/target shape mismatch " +
                     pred->value.shape_string() + " vs " + target.shape_string());
  auto op = acquire_op(OpKind::kL1Loss);
  op->inputs = {pred};
  op->attr_a = target;
  return record(Tensor(1, 1), op);
}

Var Graph::l1_loss_weighted(const Var& pred, const Tensor& target,
                            const Tensor& weight) {
  if (!pred->value.same_shape(target) || !pred->value.same_shape(weight))
    throw ShapeError("l1_loss_weighted: shape mismatch");
  auto op = acquire_op(OpKind::kL1LossWeighted);
  op->inputs = {pred};
  op->attr_a = target;
  op->attr_b = weight;
  return record(Tensor(1, 1), op);
}

Var Graph::softmax_cross_entropy(const Var& logits,
                                 const std::vector<int>& labels) {
  const int rows = logits->value.rows(), cols = logits->value.cols();
  if (static_cast<int>(labels.size()) != rows)
    throw ShapeError("softmax_cross_entropy: label count mismatch");
  for (int r = 0; r < rows; ++r)
    if (labels[r] < 0 || labels[r] >= cols)
      throw ShapeError("softmax_cross_entropy: label out of range");
  auto op = acquire_op(OpKind::kSoftmaxXent);
  op->inputs = {logits};
  op->segment = labels;
  return record(Tensor(1, 1), op);
}

Var Graph::custom(const std::vector<Var>& inputs, int rows, int cols,
                  std::unique_ptr<CustomKernels> kernels) {
  if (kernels == nullptr) throw Error("custom: no kernels");
  auto op = acquire_op(OpKind::kCustom);
  op->inputs.assign(inputs);
  op->custom = std::move(kernels);
  return record(Tensor(rows, cols), op);
}

void Graph::backward(const Var& root) {
  if (!grad_enabled_) throw Error("Graph::backward: gradients disabled");
  if (backward_ran_)
    throw Error("Graph::backward: already ran on this Graph; record a new Graph");
  backward_ran_ = true;
  root->ensure_grad().fill(1.0f);
  run_backward(tape_);
}

void Graph::clear() {
  for (Op* op : tape_) {
    op->out->producer = nullptr;
    recycle(op);
  }
  tape_.clear();
}

}  // namespace deepseq::nn
