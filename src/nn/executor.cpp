#include "nn/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "nn/kernels.hpp"

namespace deepseq::nn {

namespace {

thread_local ExecStats* g_trace = nullptr;

// ---- forward kernels -------------------------------------------------------
//
// Each kernel computes its op's whole output.

void fwd_elementwise(const Op& op) {
  Tensor& out = op.out->value;
  const std::size_t count = out.size();
  float* o = out.data();
  const float* x = op.inputs[0]->value.data();
  switch (op.kind) {
    case OpKind::kAdd:
      kernels::add(o, x, op.inputs[1]->value.data(), count);
      break;
    case OpKind::kSub:
      kernels::sub(o, x, op.inputs[1]->value.data(), count);
      break;
    case OpKind::kMul:
      kernels::mul(o, x, op.inputs[1]->value.data(), count);
      break;
    case OpKind::kScale:
      kernels::scale(o, x, op.scalar, count);
      break;
    case OpKind::kSigmoid:
      kernels::sigmoid(o, x, count);
      break;
    case OpKind::kTanh:
      kernels::tanh_(o, x, count);
      break;
    case OpKind::kRelu:
      kernels::relu(o, x, count);
      break;
    case OpKind::kOneMinus:
      kernels::one_minus(o, x, count);
      break;
    default:
      break;
  }
}

void fwd_add_row(const Op& op) {
  Tensor& out = op.out->value;
  kernels::add_row(out.data(), op.inputs[0]->value.data(),
                   op.inputs[1]->value.row(0),
                   static_cast<std::size_t>(out.rows()),
                   static_cast<std::size_t>(out.cols()));
}

void fwd_matmul(const Op& op) {
  Tensor& out = op.out->value;  // zero-initialized at record time
  const Tensor& a = op.inputs[0]->value;
  const Tensor& bm = op.inputs[1]->value;
  kernels::matmul_rows(a.data(), a.cols(), bm.data(), bm.cols(), out.data(),
                       out.cols(), out.rows(), a.cols(), bm.cols());
}

void fwd_mul_col(const Op& op) {
  Tensor& out = op.out->value;
  kernels::mul_col(out.data(), op.inputs[0]->value.data(),
                   op.inputs[1]->value.data(),
                   static_cast<std::size_t>(out.rows()),
                   static_cast<std::size_t>(out.cols()));
}

void fwd_concat_cols(const Op& op) {
  Tensor& out = op.out->value;
  int offset = 0;
  for (const Var& block : op.inputs) {
    const Tensor& bv = block->value;
    for (int r = 0; r < out.rows(); ++r)
      std::copy(bv.row(r), bv.row(r) + bv.cols(), out.row(r) + offset);
    offset += bv.cols();
  }
}

void fwd_gather(const Op& op) {
  Tensor& out = op.out->value;
  const int cols = out.cols();
  for (int i = 0; i < out.rows(); ++i) {
    const RowRef& r = op.refs[static_cast<std::size_t>(i)];
    std::copy(r.var->value.row(r.row), r.var->value.row(r.row) + cols, out.row(i));
  }
}

void fwd_segment_sum(const Op& op) {
  const Tensor& v = op.inputs[0]->value;
  kernels::segment_sum(op.out->value.data(), v.data(), op.segment.data(),
                       static_cast<std::size_t>(v.rows()),
                       static_cast<std::size_t>(v.cols()));
}

void fwd_segment_max(Op& op) {
  Tensor& out = op.out->value;
  const Tensor& v = op.inputs[0]->value;
  const int cols = out.cols();
  for (int row = 0; row < v.rows(); ++row) {
    const int s = op.segment[static_cast<std::size_t>(row)];
    const float* src = v.row(row);
    float* dst = out.row(s);
    for (int c = 0; c < cols; ++c) {
      int& am = op.argmax[static_cast<std::size_t>(s) * cols + c];
      if (am < 0 || src[c] > dst[c]) {
        dst[c] = src[c];
        am = row;
      }
    }
  }
}

void fwd_segment_softmax(const Op& op) {
  const Tensor& scores = op.inputs[0]->value;
  kernels::segment_softmax(op.out->value.data(), scores.data(),
                           op.segment.data(),
                           static_cast<std::size_t>(scores.rows()),
                           op.num_segments);
}

void fwd_l1_loss(Op& op) {
  const Tensor& pred = op.inputs[0]->value;
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    acc += std::fabs(pred.data()[i] - op.attr_a.data()[i]);
  op.out->value.at(0, 0) =
      static_cast<float>(acc / static_cast<double>(op.attr_a.size()));
}

void fwd_l1_loss_weighted(Op& op) {
  const Tensor& pred = op.inputs[0]->value;
  double acc = 0.0, wsum = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    acc += op.attr_b.data()[i] * std::fabs(pred.data()[i] - op.attr_a.data()[i]);
    wsum += op.attr_b.data()[i];
  }
  if (wsum <= 0.0) wsum = 1.0;
  op.out->value.at(0, 0) = static_cast<float>(acc / wsum);
  // The backward kernel divides by float(wsum) exactly as the forward did.
  op.scalar = static_cast<float>(wsum);
}

void fwd_softmax_xent(Op& op) {
  const Tensor& logits = op.inputs[0]->value;
  const int rows = logits.rows(), cols = logits.cols();
  op.saved = Tensor(rows, cols);
  double acc = 0.0;
  for (int r = 0; r < rows; ++r) {
    const float* z = logits.row(r);
    float zmax = z[0];
    for (int c = 1; c < cols; ++c) zmax = std::max(zmax, z[c]);
    double denom = 0.0;
    for (int c = 0; c < cols; ++c) denom += std::exp(static_cast<double>(z[c] - zmax));
    float* p = op.saved.row(r);
    for (int c = 0; c < cols; ++c)
      p[c] = static_cast<float>(std::exp(static_cast<double>(z[c] - zmax)) / denom);
    acc -= std::log(std::max(static_cast<double>(p[op.segment[r]]), 1e-12));
  }
  op.out->value.at(0, 0) = static_cast<float>(acc / rows);
}

void forward_kernel(Op& op) {
  switch (op.kind) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kScale:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kRelu:
    case OpKind::kOneMinus:
      fwd_elementwise(op);
      break;
    case OpKind::kAddRow: fwd_add_row(op); break;
    case OpKind::kMatmul: fwd_matmul(op); break;
    case OpKind::kMulCol: fwd_mul_col(op); break;
    case OpKind::kConcatCols: fwd_concat_cols(op); break;
    case OpKind::kGather: fwd_gather(op); break;
    case OpKind::kSegmentSum: fwd_segment_sum(op); break;
    case OpKind::kSegmentMax: fwd_segment_max(op); break;
    case OpKind::kSegmentSoftmax: fwd_segment_softmax(op); break;
    case OpKind::kL1Loss: fwd_l1_loss(op); break;
    case OpKind::kL1LossWeighted: fwd_l1_loss_weighted(op); break;
    case OpKind::kSoftmaxXent: fwd_softmax_xent(op); break;
    case OpKind::kCustom: op.custom->forward(op.out->value); break;
  }
}

// ---- backward kernels ------------------------------------------------------
//
// backward_target accumulates the op's output gradient into the gradient of
// operand `target` (the unique-Var list index; gather scatters into every
// referenced Var at once). Per element, contributions land in a fixed order:
// ops in reverse record order, an op's targets in operand order, rows in
// ascending order within a target.

void backward_target(Op& op, int target) {
  const Tensor& g = op.out->grad;
  switch (op.kind) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kScale:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kRelu:
    case OpKind::kOneMinus: {
      const Var& in = op.inputs[target];
      const std::size_t count = g.size();
      float* dst = in->grad.data();
      const float* gp = g.data();
      switch (op.kind) {
        case OpKind::kAdd:
          kernels::acc_add(dst, gp, count);
          break;
        case OpKind::kSub:
          if (target == 0)
            kernels::acc_add(dst, gp, count);
          else
            kernels::acc_sub(dst, gp, count);
          break;
        case OpKind::kMul:
          kernels::acc_mul(dst, gp, op.inputs[1 - target]->value.data(), count);
          break;
        case OpKind::kScale:
          kernels::acc_scale(dst, gp, op.scalar, count);
          break;
        case OpKind::kSigmoid:
          kernels::sigmoid_backward(dst, gp, op.out->value.data(), count);
          break;
        case OpKind::kTanh:
          kernels::tanh_backward(dst, gp, op.out->value.data(), count);
          break;
        case OpKind::kRelu: {
          const float* x = in->value.data();
          for (std::size_t i = 0; i < count; ++i)
            if (x[i] > 0.0f) dst[i] += gp[i];
          break;
        }
        case OpKind::kOneMinus:
          kernels::acc_sub(dst, gp, count);
          break;
        default:
          break;
      }
      break;
    }
    case OpKind::kAddRow: {
      if (target == 0) {
        kernels::acc_add(op.inputs[0]->grad.data(), g.data(), g.size());
      } else {
        kernels::bias_backward(op.inputs[1]->grad.data(), g.data(),
                               static_cast<std::size_t>(g.rows()),
                               static_cast<std::size_t>(g.cols()));
      }
      break;
    }
    case OpKind::kMatmul: {
      // dA += G * B^T and dB += A^T * G, the kernels behind
      // nn::matmul_nt_acc and nn::matmul_tn_acc.
      const Tensor& a = op.inputs[0]->value;
      const Tensor& bm = op.inputs[1]->value;
      if (target == 0) {
        Tensor& ga = op.inputs[0]->grad;
        kernels::matmul_nt_acc(g.data(), g.cols(), bm.data(), bm.cols(), ga.data(),
                               ga.cols(), a.rows(), g.cols(), bm.rows());
      } else {
        Tensor& gb = op.inputs[1]->grad;
        kernels::matmul_tn_acc(a.data(), a.cols(), g.data(), g.cols(), gb.data(),
                               gb.cols(), a.rows(), a.cols(), g.cols());
      }
      break;
    }
    case OpKind::kMulCol: {
      const std::size_t rows = static_cast<std::size_t>(g.rows());
      const std::size_t cols = static_cast<std::size_t>(g.cols());
      if (target == 0)
        kernels::mul_col_backward_values(op.inputs[0]->grad.data(), g.data(),
                                         op.inputs[1]->value.data(), rows, cols);
      else
        kernels::mul_col_backward_col(op.inputs[1]->grad.data(), g.data(),
                                      op.inputs[0]->value.data(), cols, rows, cols);
      break;
    }
    case OpKind::kConcatCols: {
      int off = 0;
      for (int i = 0; i < target; ++i) off += op.inputs[i]->value.cols();
      Tensor& tg = op.inputs[target]->grad;
      const int bc = op.inputs[target]->value.cols();
      for (int r = 0; r < tg.rows(); ++r)
        kernels::acc_add(tg.row(r), g.row(r) + off, static_cast<std::size_t>(bc));
      break;
    }
    case OpKind::kGather: {
      const int cols = op.out->value.cols();
      for (std::size_t i = 0; i < op.refs.size(); ++i) {
        const RowRef& r = op.refs[i];
        if (!r.var->requires_grad) continue;
        kernels::acc_add(r.var->ensure_grad().row(r.row),
                         g.row(static_cast<int>(i)),
                         static_cast<std::size_t>(cols));
      }
      break;
    }
    case OpKind::kSegmentSoftmax:
      kernels::segment_softmax_backward(op.inputs[0]->grad.data(), g.data(),
                                        op.out->value.data(), op.segment.data(),
                                        static_cast<std::size_t>(g.rows()),
                                        op.num_segments);
      break;
    case OpKind::kSegmentSum: {
      const Tensor& v = op.inputs[0]->value;
      kernels::segment_sum_backward(op.inputs[0]->grad.data(), g.data(),
                                    op.segment.data(),
                                    static_cast<std::size_t>(v.rows()),
                                    static_cast<std::size_t>(v.cols()));
      break;
    }
    case OpKind::kSegmentMax: {
      Tensor& tg = op.inputs[0]->grad;
      const int cols = op.out->value.cols();
      for (int s = 0; s < g.rows(); ++s) {
        const float* src = g.row(s);
        for (int c = 0; c < cols; ++c) {
          const int row = op.argmax[static_cast<std::size_t>(s) * cols + c];
          if (row >= 0) tg.row(row)[c] += src[c];
        }
      }
      break;
    }
    case OpKind::kL1Loss: {
      Tensor& tg = op.inputs[0]->grad;
      const Tensor& pred = op.inputs[0]->value;
      const float s =
          g.at(0, 0) / static_cast<float>(static_cast<double>(op.attr_a.size()));
      for (std::size_t i = 0; i < pred.size(); ++i) {
        const float d = pred.data()[i] - op.attr_a.data()[i];
        tg.data()[i] += d > 0.0f ? s : (d < 0.0f ? -s : 0.0f);
      }
      break;
    }
    case OpKind::kL1LossWeighted: {
      Tensor& tg = op.inputs[0]->grad;
      const Tensor& pred = op.inputs[0]->value;
      const float s = g.at(0, 0) / op.scalar;  // scalar = float(wsum), set by forward
      for (std::size_t i = 0; i < pred.size(); ++i) {
        const float d = pred.data()[i] - op.attr_a.data()[i];
        tg.data()[i] +=
            op.attr_b.data()[i] * (d > 0.0f ? s : (d < 0.0f ? -s : 0.0f));
      }
      break;
    }
    case OpKind::kSoftmaxXent: {
      Tensor& tg = op.inputs[0]->grad;
      const float s = g.at(0, 0) / static_cast<float>(op.saved.rows());
      for (int r = 0; r < op.saved.rows(); ++r) {
        const float* p = op.saved.row(r);
        float* dst = tg.row(r);
        for (int c = 0; c < op.saved.cols(); ++c)
          dst[c] += s * (p[c] - (c == op.segment[r] ? 1.0f : 0.0f));
      }
      break;
    }
    case OpKind::kCustom:
      break;  // run_backward hands the whole op to its kernels
  }
}

}  // namespace

void run_forward(Op& op) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start =
      g_trace != nullptr ? Clock::now() : Clock::time_point{};
  forward_kernel(op);
  if (g_trace == nullptr) return;
  g_trace->flushes += 1;
  g_trace->steps += 1;
  g_trace->simd_lanes = kernels::lanes();
  g_trace->flush_ms.push_back(
      std::chrono::duration<double, std::milli>(Clock::now() - start).count());
}

void run_backward(const std::vector<Op*>& tape) {
  using Clock = std::chrono::steady_clock;
  ExecStats* const trace = g_trace;
  const Clock::time_point start = trace != nullptr ? Clock::now() : Clock::time_point{};
  for (auto it = tape.rbegin(); it != tape.rend(); ++it) {
    Op* op = *it;
    if (!op->out->has_grad()) continue;
    for (const Var& in : op->inputs)
      if (in->requires_grad) in->ensure_grad();
    if (op->kind == OpKind::kGather) {
      backward_target(*op, 0);
      continue;
    }
    if (op->kind == OpKind::kCustom) {
      op->custom->backward(op->out->grad);
      continue;
    }
    for (std::size_t i = 0; i < op->inputs.size(); ++i)
      if (op->inputs[i]->requires_grad)
        backward_target(*op, static_cast<int>(i));
  }
  if (trace != nullptr)
    trace->backward_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start).count());
}

ExecTraceScope::ExecTraceScope(ExecStats& stats) : prev_(g_trace) {
  g_trace = &stats;
}

ExecTraceScope::~ExecTraceScope() { g_trace = prev_; }

ExecStats* ExecTraceScope::active() { return g_trace; }

}  // namespace deepseq::nn
