#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "nn/tensor.hpp"

namespace deepseq::nn {

struct Op;  // op.hpp: the typed operation record built by the record layer
enum class OpKind : std::uint8_t;

/// A node in the computation graph. `value` holds the op's output as soon
/// as the op method returns; `grad` is allocated lazily during backward().
struct VarNode {
  Tensor value;
  Tensor grad;  // empty until needed
  bool requires_grad = false;
  /// The taped Op computing this node (owned by the Graph's tape); null for
  /// leaves and in no-grad mode. Graph links live in the ops, whose
  /// creation-ordered destruction is iterative — nodes never point at each
  /// other, so deep unrolled chains can't recurse the destructor.
  Op* producer = nullptr;

  bool has_grad() const { return grad.rows() == value.rows() && grad.cols() == value.cols() && grad.size() > 0; }
  Tensor& ensure_grad() {
    if (!has_grad()) grad = Tensor(value.rows(), value.cols());
    return grad;
  }
  /// The gradient to accumulate into, or null when this node takes none
  /// (the backward of Graph::custom kernels and of the fused modules).
  float* grad_target() { return requires_grad ? ensure_grad().data() : nullptr; }
};

using Var = std::shared_ptr<VarNode>;

/// Create a trainable parameter (lives outside any Graph tape; gradients
/// accumulate across backward calls until an optimizer zeroes them).
Var make_param(Tensor value);
/// Create a non-trainable constant/input.
Var make_constant(Tensor value);

/// Reference to one row of a Var — the unit the GNN state map hands to
/// gather(): node states live as rows of per-level matrices.
struct RowRef {
  Var var;
  int row = 0;
};

/// The kernels of a Graph::custom op, supplied by the code that records it,
/// so the tape runs ops over types nn does not know (the fused DeepSeq
/// level, for one).
class CustomKernels {
 public:
  CustomKernels() = default;
  CustomKernels(const CustomKernels&) = delete;
  CustomKernels& operator=(const CustomKernels&) = delete;
  virtual ~CustomKernels() = default;
  /// Compute the op's whole output (zero-filled on entry); runs once, as
  /// the op is recorded.
  virtual void forward(Tensor& out) = 0;
  /// Accumulate `out_grad` into the gradients of the op's inputs.
  /// nn::run_backward has allocated the gradient of every input that
  /// requires one; inputs that do not must be left alone.
  virtual void backward(const Tensor& out_grad) = 0;
};

/// Reverse-mode autograd over an eager tape. Each op method builds one
/// typed Op (shape-checked, output tensor preallocated) and runs its
/// forward kernel at once on the calling thread (nn::run_forward), so
/// `var->value` is ready when the method returns. The op stays on the tape
/// when its output needs a gradient and is recycled otherwise.
///
/// The tape is in record order, a topological order of the DAG, so
/// backward() walks it from last to first (nn::run_backward) and runs every
/// op whose output got a gradient: exactly the ops the root depends on, and
/// every gradient element accumulates in one fixed order. The walk rests on
/// two rules:
///  - backward() runs at most once per Graph; a second call throws. The
///    walk needs every intermediate to start with no gradient.
///  - No op is recorded over a Var taped on another live Graph. The walk
///    sees only this Graph's tape, so no gradient would flow back through
///    the other Graph's ops.
/// clear() breaks parent links iteratively to avoid deep recursive
/// shared_ptr destruction. Construct with grad_enabled=false for inference:
/// every op is recycled as soon as it ran, and intermediates free as soon
/// as they go out of scope.
class Graph {
 public:
  explicit Graph(bool grad_enabled = true);
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  ~Graph();

  bool grad_enabled() const { return grad_enabled_; }

  Var constant(Tensor value);

  // ---- elementwise / linear algebra ---------------------------------------
  Var add(const Var& a, const Var& b);
  Var sub(const Var& a, const Var& b);
  Var mul(const Var& a, const Var& b);
  /// a (r x c) + row (1 x c), broadcast over rows.
  Var add_row(const Var& a, const Var& row);
  Var matmul(const Var& a, const Var& b);
  Var scale(const Var& a, float s);
  Var sigmoid(const Var& a);
  Var tanh_(const Var& a);
  Var relu(const Var& a);
  /// 1 - a (elementwise), used by the GRU update gate.
  Var one_minus(const Var& a);

  // ---- structure ops for level-batched message passing --------------------
  /// Horizontally concatenate equal-row-count blocks.
  Var concat_cols(const std::vector<Var>& blocks);
  /// Stack arbitrary rows of arbitrary Vars into a new matrix.
  Var gather(const std::vector<RowRef>& refs);
  /// Per-segment softmax over a column of scores (E x 1). segment[e] in
  /// [0, num_segments); entries of a segment need not be contiguous.
  Var segment_softmax(const Var& scores, const std::vector<int>& segment,
                      int num_segments);
  /// values (E x d) * col (E x 1) broadcast across columns.
  Var mul_col(const Var& values, const Var& col);
  /// Sum rows of values (E x d) into their segment (num_segments x d).
  Var segment_sum(const Var& values, const std::vector<int>& segment,
                  int num_segments);
  /// Columnwise max of values (E x d) per segment (num_segments x d);
  /// gradient flows to the (first) argmax row of each segment/column only.
  /// Empty segments yield 0.
  Var segment_max(const Var& values, const std::vector<int>& segment,
                  int num_segments);

  // ---- losses --------------------------------------------------------------
  /// Mean absolute error against a fixed target; returns a 1x1 scalar.
  Var l1_loss(const Var& pred, const Tensor& target);
  /// Weighted mean absolute error; weight shape == pred shape.
  Var l1_loss_weighted(const Var& pred, const Tensor& target,
                       const Tensor& weight);
  /// Mean softmax cross-entropy of logits (B x C) against integer class
  /// labels (size B, values in [0, C)); returns a 1x1 scalar. Numerically
  /// stabilized by row-max subtraction.
  Var softmax_cross_entropy(const Var& logits, const std::vector<int>& labels);

  // ---- caller-supplied kernels ----------------------------------------------
  /// One op whose rows x cols output `kernels` computes, over `inputs`:
  /// every Var the kernels read a value of or accumulate a gradient into.
  /// The inputs decide, as for any op, whether the op stays on the tape.
  Var custom(const std::vector<Var>& inputs, int rows, int cols,
             std::unique_ptr<CustomKernels> kernels);

  /// Backpropagate from a scalar (or any) root: seeds d(root)/d(root) = 1.
  /// Throws deepseq::Error when gradients are disabled or when backward
  /// already ran on this Graph.
  void backward(const Var& root);

  /// Break all graph links recorded on this tape (values stay valid).
  void clear();

  std::size_t tape_size() const { return tape_.size(); }

 private:
  /// Allocate the output node for `op`, run the op's forward kernel, and
  /// keep the op on the tape when its output requires a gradient (recycle
  /// it otherwise).
  Var record(Tensor out, Op* op);

  /// A fresh (or recycled) Op to record into. Ops live in a Graph-owned
  /// block arena: ops that stay off the tape return to a free list as soon
  /// as they ran (taped ops on clear()), so steady-state inference re-records
  /// into warm Op objects whose member vectors keep their capacity —
  /// near-zero allocation per op, and no per-op control-block churn.
  Op* acquire_op(OpKind kind);

  /// Release an executed op's references (values stay valid) and return it
  /// to the free list with warm member-vector capacity.
  void recycle(Op* op);

  bool grad_enabled_;
  bool backward_ran_ = false;
  std::vector<Op*> tape_;      // retained for backward(), in record order
  std::vector<Op*> free_ops_;  // recycling pool

  /// Arena blocks owning every Op this graph ever recorded. Freed with the
  /// graph; recycled slots are reused in LIFO order (hot in cache).
  std::vector<std::unique_ptr<Op[]>> arena_;
  std::size_t arena_used_ = 0;  // slots handed out of arena_.back()
};

}  // namespace deepseq::nn
