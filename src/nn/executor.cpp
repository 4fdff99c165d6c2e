#include "nn/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/env.hpp"
#include "common/error.hpp"
#include "nn/kernels.hpp"
#include "runtime/thread_pool.hpp"

namespace deepseq::nn {

namespace {

// Flushes below this summed work estimate run inline: enlisting pool
// helpers costs a few queue pushes and wakeups, which only pays off for
// real work.
constexpr std::uint64_t kMinParallelFlushWork = 65536;

thread_local Executor* g_current_executor = nullptr;
thread_local ExecStats* g_trace = nullptr;

// ---- forward kernels -------------------------------------------------------
//
// Each kernel computes rows [begin, end) of its op's output (columns for the
// segment reductions; the full output for non-splittable kinds, which the
// planner always emits as a single {0, 0} chunk). The inner-loop order per
// output element matches the sequential kernel exactly, so any chunking —
// including the single full-range chunk of the sequential path — produces
// bit-identical values.

void fwd_elementwise(const Op& op, int b, int e) {
  Tensor& out = op.out->value;
  const int cols = out.cols();
  const std::size_t off = static_cast<std::size_t>(b) * cols;
  const std::size_t count = static_cast<std::size_t>(e - b) * cols;
  float* o = out.data() + off;
  const float* x = op.inputs[0]->value.data() + off;
  switch (op.kind) {
    case OpKind::kAdd:
      kernels::add(o, x, op.inputs[1]->value.data() + off, count);
      break;
    case OpKind::kSub:
      kernels::sub(o, x, op.inputs[1]->value.data() + off, count);
      break;
    case OpKind::kMul:
      kernels::mul(o, x, op.inputs[1]->value.data() + off, count);
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

void fwd_add_row(const Op& op, int b, int e) {
  Tensor& out = op.out->value;
  kernels::add_row(out.row(b), op.inputs[0]->value.row(b),
                   op.inputs[1]->value.row(0), static_cast<std::size_t>(e - b),
                   static_cast<std::size_t>(out.cols()));
}

void fwd_matmul(const Op& op, int b, int e) {
  Tensor& out = op.out->value;  // zero-initialized at record time
  const Tensor& a = op.inputs[0]->value;
  const Tensor& bm = op.inputs[1]->value;
  kernels::matmul_rows(a.data(), a.cols(), bm.data(), bm.cols(), out.data(),
                       out.cols(), b, e, a.cols(), bm.cols());
}

void fwd_mul_col(const Op& op, int b, int e) {
  Tensor& out = op.out->value;
  kernels::mul_col(out.row(b), op.inputs[0]->value.row(b),
                   op.inputs[1]->value.row(b), static_cast<std::size_t>(e - b),
                   static_cast<std::size_t>(out.cols()));
}

void fwd_concat_cols(const Op& op, int b, int e) {
  Tensor& out = op.out->value;
  int offset = 0;
  for (const Var& block : op.inputs) {
    const Tensor& bv = block->value;
    for (int r = b; r < e; ++r)
      std::copy(bv.row(r), bv.row(r) + bv.cols(), out.row(r) + offset);
    offset += bv.cols();
  }
}

void fwd_gather(const Op& op, int b, int e) {
  Tensor& out = op.out->value;
  const int cols = out.cols();
  for (int i = b; i < e; ++i) {
    const RowRef& r = op.refs[static_cast<std::size_t>(i)];
    std::copy(r.var->value.row(r.row), r.var->value.row(r.row) + cols, out.row(i));
  }
}

// Column range [b, e): output rows are scatter targets, columns independent.
void fwd_segment_sum(const Op& op, int b, int e) {
  const Tensor& v = op.inputs[0]->value;
  kernels::segment_sum(op.out->value.data(), v.data(), op.segment.data(),
                       static_cast<std::size_t>(v.rows()),
                       static_cast<std::size_t>(v.cols()),
                       static_cast<std::size_t>(b), static_cast<std::size_t>(e));
}

void fwd_segment_max(Op& op, int b, int e) {
  Tensor& out = op.out->value;
  const Tensor& v = op.inputs[0]->value;
  const int cols = out.cols();
  for (int row = 0; row < v.rows(); ++row) {
    const int s = op.segment[static_cast<std::size_t>(row)];
    const float* src = v.row(row);
    float* dst = out.row(s);
    for (int c = b; c < e; ++c) {
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

void forward_kernel(const Chunk& chunk) {
  Op& op = *chunk.op;
  switch (op.kind) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kScale:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kRelu:
    case OpKind::kOneMinus:
      fwd_elementwise(op, chunk.begin, chunk.end);
      break;
    case OpKind::kAddRow: fwd_add_row(op, chunk.begin, chunk.end); break;
    case OpKind::kMatmul: fwd_matmul(op, chunk.begin, chunk.end); break;
    case OpKind::kMulCol: fwd_mul_col(op, chunk.begin, chunk.end); break;
    case OpKind::kConcatCols: fwd_concat_cols(op, chunk.begin, chunk.end); break;
    case OpKind::kGather: fwd_gather(op, chunk.begin, chunk.end); break;
    case OpKind::kSegmentSum: fwd_segment_sum(op, chunk.begin, chunk.end); break;
    case OpKind::kSegmentMax: fwd_segment_max(op, chunk.begin, chunk.end); break;
    case OpKind::kSegmentSoftmax: fwd_segment_softmax(op); break;
    case OpKind::kL1Loss: fwd_l1_loss(op); break;
    case OpKind::kL1LossWeighted: fwd_l1_loss_weighted(op); break;
    case OpKind::kSoftmaxXent: fwd_softmax_xent(op); break;
  }
}

// ---- backward kernels ------------------------------------------------------
//
// One op's backward splits into "parts" (one per gradient target, one per
// block for concat), each with its own parallel extent. Parts are chunkable
// only where scatter destinations are provably disjoint rows/elements; the
// rest (gather's row fan-in, segment_softmax's two-pass reduction, add_row's
// ordered row-vector accumulation) run as one full-range part. Per-element
// accumulation order always matches the sequential pass.

struct BwPart {
  int role = 0;
  int extent = 0;  // 0 = full-range single chunk
  std::uint64_t work = 0;
};

std::vector<BwPart> backward_parts(const Op& op) {
  std::vector<BwPart> parts;
  const Tensor& out = op.out->value;
  const auto grad_needed = [&](std::size_t i) {
    return i < op.inputs.size() && op.inputs[i]->requires_grad;
  };
  switch (op.kind) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
      if (grad_needed(0))
        parts.push_back({0, out.rows(), static_cast<std::uint64_t>(out.size())});
      if (grad_needed(1))
        parts.push_back({1, out.rows(), static_cast<std::uint64_t>(out.size())});
      break;
    case OpKind::kScale:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kRelu:
    case OpKind::kOneMinus:
      if (grad_needed(0))
        parts.push_back({0, out.rows(), static_cast<std::uint64_t>(out.size())});
      break;
    case OpKind::kAddRow:
      if (grad_needed(0))
        parts.push_back({0, out.rows(), static_cast<std::uint64_t>(out.size())});
      if (grad_needed(1))
        parts.push_back({1, 0, static_cast<std::uint64_t>(out.size())});
      break;
    case OpKind::kMatmul: {
      const std::uint64_t w = 2ull * static_cast<std::uint64_t>(out.rows()) *
                              op.inputs[0]->value.cols() * out.cols();
      if (grad_needed(0)) parts.push_back({0, op.inputs[0]->value.rows(), w});
      if (grad_needed(1)) parts.push_back({1, op.inputs[1]->value.rows(), w});
      break;
    }
    case OpKind::kMulCol:
      if (grad_needed(0))
        parts.push_back({0, out.rows(), static_cast<std::uint64_t>(out.size())});
      if (grad_needed(1))
        parts.push_back({1, out.rows(), static_cast<std::uint64_t>(out.size())});
      break;
    case OpKind::kConcatCols:
      for (std::size_t i = 0; i < op.inputs.size(); ++i)
        if (grad_needed(i))
          parts.push_back({static_cast<int>(i), out.rows(),
                           static_cast<std::uint64_t>(op.inputs[i]->value.size())});
      break;
    case OpKind::kGather:
    case OpKind::kSegmentSoftmax:
      parts.push_back({0, 0, static_cast<std::uint64_t>(out.size())});
      break;
    case OpKind::kSegmentSum:
      if (grad_needed(0))
        parts.push_back({0, op.inputs[0]->value.rows(),
                         static_cast<std::uint64_t>(op.inputs[0]->value.size())});
      break;
    case OpKind::kSegmentMax:
      if (grad_needed(0))
        parts.push_back({0, out.rows(),
                         static_cast<std::uint64_t>(op.inputs[0]->value.size())});
      break;
    case OpKind::kL1Loss:
    case OpKind::kL1LossWeighted:
    case OpKind::kSoftmaxXent:
      if (grad_needed(0))
        parts.push_back({0, op.inputs[0]->value.rows(),
                         static_cast<std::uint64_t>(op.inputs[0]->value.size())});
      break;
  }
  return parts;
}

void run_backward_part(Op& op, int role, int b, int e) {
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
      const Var& target = op.inputs[role == 1 ? 1 : 0];
      Tensor& tg = target->grad;
      const int cols = op.out->value.cols();
      const std::size_t off = static_cast<std::size_t>(b) * cols;
      const std::size_t count = static_cast<std::size_t>(e - b) * cols;
      float* dst = tg.data() + off;
      const float* gp = g.data() + off;
      switch (op.kind) {
        case OpKind::kAdd:
          kernels::acc_add(dst, gp, count);
          break;
        case OpKind::kSub:
          if (role == 0)
            kernels::acc_add(dst, gp, count);
          else
            kernels::acc_sub(dst, gp, count);
          break;
        case OpKind::kMul:
          kernels::acc_mul(dst, gp, op.inputs[role == 0 ? 1 : 0]->value.data() + off,
                           count);
          break;
        case OpKind::kScale:
          kernels::acc_scale(dst, gp, op.scalar, count);
          break;
        case OpKind::kSigmoid: {
          const float* y = op.out->value.data() + off;
          for (std::size_t i = 0; i < count; ++i)
            dst[i] += gp[i] * y[i] * (1.0f - y[i]);
          break;
        }
        case OpKind::kTanh: {
          const float* y = op.out->value.data() + off;
          for (std::size_t i = 0; i < count; ++i)
            dst[i] += gp[i] * (1.0f - y[i] * y[i]);
          break;
        }
        case OpKind::kRelu: {
          const float* x = target->value.data() + off;
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
      if (role == 0) {
        Tensor& tg = op.inputs[0]->grad;
        const int cols = g.cols();
        const std::size_t off = static_cast<std::size_t>(b) * cols;
        const std::size_t count = static_cast<std::size_t>(e - b) * cols;
        kernels::acc_add(tg.data() + off, g.data() + off, count);
      } else {
        Tensor& tg = op.inputs[1]->grad;  // ordered full-range accumulation
        for (int r = 0; r < g.rows(); ++r)
          for (int c = 0; c < g.cols(); ++c) tg.at(0, c) += g.at(r, c);
      }
      break;
    }
    case OpKind::kMatmul: {
      const Tensor& a = op.inputs[0]->value;
      const Tensor& bm = op.inputs[1]->value;
      if (role == 0) {
        // dA += G * B^T, rows [b, e) of A; per-element double accumulation
        // in ascending column order, as matmul_nt_acc does.
        Tensor& ga = op.inputs[0]->grad;
        const int k = g.cols(), n = bm.rows();
        for (int i = b; i < e; ++i) {
          const float* grow = g.row(i);
          float* orow = ga.row(i);
          for (int j = 0; j < n; ++j) {
            const float* brow = bm.row(j);
            double acc = 0.0;
            for (int p = 0; p < k; ++p) acc += grow[p] * brow[p];
            orow[j] += static_cast<float>(acc);
          }
        }
      } else {
        // dB += A^T * G, rows [b, e) of B (= columns of A); per-element
        // accumulation over A's rows in ascending order with the same
        // zero-skip as matmul_tn_acc.
        Tensor& gb = op.inputs[1]->grad;
        const int m = a.rows(), n = g.cols();
        for (int i = b; i < e; ++i) {
          float* orow = gb.row(i);
          for (int p = 0; p < m; ++p) {
            const float av = a.at(p, i);
            if (av == 0.0f) continue;
            kernels::acc_scale(orow, g.row(p), av, static_cast<std::size_t>(n));
          }
        }
      }
      break;
    }
    case OpKind::kMulCol: {
      if (role == 0) {
        Tensor& tg = op.inputs[0]->grad;
        const Tensor& col = op.inputs[1]->value;
        for (int r = b; r < e; ++r) {
          const float a = col.at(r, 0);
          for (int c = 0; c < tg.cols(); ++c) tg.at(r, c) += g.at(r, c) * a;
        }
      } else {
        Tensor& tg = op.inputs[1]->grad;
        const Tensor& v = op.inputs[0]->value;
        for (int r = b; r < e; ++r) {
          double acc = 0.0;
          for (int c = 0; c < g.cols(); ++c)
            acc += static_cast<double>(g.at(r, c)) * v.at(r, c);
          tg.at(r, 0) += static_cast<float>(acc);
        }
      }
      break;
    }
    case OpKind::kConcatCols: {
      int off = 0;
      for (int i = 0; i < role; ++i) off += op.inputs[i]->value.cols();
      Tensor& tg = op.inputs[role]->grad;
      const int bc = op.inputs[role]->value.cols();
      for (int r = b; r < e; ++r)
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
    case OpKind::kSegmentSoftmax: {
      // ds_e = y_e * (g_e - sum_{e' in seg} g_e' y_e')
      const Tensor& y = op.out->value;
      std::vector<double> seg_dot(static_cast<std::size_t>(op.num_segments), 0.0);
      const int n = y.rows();
      for (int e2 = 0; e2 < n; ++e2)
        seg_dot[op.segment[e2]] +=
            static_cast<double>(g.at(e2, 0)) * y.at(e2, 0);
      Tensor& tg = op.inputs[0]->grad;
      for (int e2 = 0; e2 < n; ++e2)
        tg.at(e2, 0) += y.at(e2, 0) *
                        (g.at(e2, 0) - static_cast<float>(seg_dot[op.segment[e2]]));
      break;
    }
    case OpKind::kSegmentSum: {
      Tensor& tg = op.inputs[0]->grad;
      for (int row = b; row < e; ++row)
        kernels::acc_add(tg.row(row),
                         g.row(op.segment[static_cast<std::size_t>(row)]),
                         static_cast<std::size_t>(tg.cols()));
      break;
    }
    case OpKind::kSegmentMax: {
      // Distinct segments own distinct argmax rows, and columns are sliced
      // per element, so chunking by segment rows scatters disjointly.
      Tensor& tg = op.inputs[0]->grad;
      const int cols = op.out->value.cols();
      for (int s = b; s < e; ++s) {
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
      const int cols = pred.cols();
      const std::size_t lo = static_cast<std::size_t>(b) * cols;
      const std::size_t hi = static_cast<std::size_t>(e) * cols;
      for (std::size_t i = lo; i < hi; ++i) {
        const float d = pred.data()[i] - op.attr_a.data()[i];
        tg.data()[i] += d > 0.0f ? s : (d < 0.0f ? -s : 0.0f);
      }
      break;
    }
    case OpKind::kL1LossWeighted: {
      Tensor& tg = op.inputs[0]->grad;
      const Tensor& pred = op.inputs[0]->value;
      const float s = g.at(0, 0) / op.scalar;  // scalar = float(wsum), set by forward
      const int cols = pred.cols();
      const std::size_t lo = static_cast<std::size_t>(b) * cols;
      const std::size_t hi = static_cast<std::size_t>(e) * cols;
      for (std::size_t i = lo; i < hi; ++i) {
        const float d = pred.data()[i] - op.attr_a.data()[i];
        tg.data()[i] +=
            op.attr_b.data()[i] * (d > 0.0f ? s : (d < 0.0f ? -s : 0.0f));
      }
      break;
    }
    case OpKind::kSoftmaxXent: {
      Tensor& tg = op.inputs[0]->grad;
      const float s = g.at(0, 0) / static_cast<float>(op.saved.rows());
      for (int r = b; r < e; ++r) {
        const float* p = op.saved.row(r);
        float* dst = tg.row(r);
        for (int c = 0; c < op.saved.cols(); ++c)
          dst[c] += s * (p[c] - (c == op.segment[r] ? 1.0f : 0.0f));
      }
      break;
    }
    default:
      break;
  }
}

bool op_inputs_alias(const Op& op) {
  for (std::size_t i = 0; i < op.inputs.size(); ++i)
    for (std::size_t j = i + 1; j < op.inputs.size(); ++j)
      if (op.inputs[i].get() == op.inputs[j].get()) return true;
  return false;
}

void ensure_input_grads(const Op& op) {
  for (const Var& in : op.inputs)
    if (in->requires_grad) in->ensure_grad();
}

/// Single chunk dispatch, forward or backward. Backward chunks are gated on
/// the op's output having received a gradient — deterministic at this
/// point, because every downstream op ran in an earlier cut.
void run_chunk(const Chunk& chunk) {
  Op& op = *chunk.op;
  switch (chunk.role) {
    case kRoleForward:
      forward_kernel(chunk);
      break;
    case kRolePrep:
      if (op.out->has_grad()) ensure_input_grads(op);
      break;
    case kRoleAll:
      if (op.out->has_grad()) {
        ensure_input_grads(op);
        for (const BwPart& p : backward_parts(op))
          run_backward_part(op, p.role, 0, p.extent);
      }
      break;
    default:
      if (op.out->has_grad())
        run_backward_part(op, chunk.role, chunk.begin, chunk.end);
      break;
  }
}

#if defined(__x86_64__) || defined(__i386__)
inline void cpu_relax() { __builtin_ia32_pause(); }
#else
inline void cpu_relax() {}
#endif

/// Capped exponential backoff with park: a short doubling pause burst, then
/// a few yields, then exponentially lengthening sleeps capped at 128us.
/// Over-subscribed hosts (shards x nn threads) stop burning cycles between
/// claims — a parked waiter costs scheduler wakeups instead of a core —
/// while the common uncontended wait still resolves within the pause burst.
class Backoff {
 public:
  void pause() {
    ++waits_;
    if (waits_ <= kSpinWaits) {
      const int reps = 1 << (waits_ < 7 ? waits_ - 1 : 6);
      for (int i = 0; i < reps; ++i) cpu_relax();
    } else if (waits_ <= kSpinWaits + kYieldWaits) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(park_us_));
      ++parks_;
      if (park_us_ < kMaxParkUs) park_us_ *= 2;
    }
  }
  /// Back to the fast path after useful work; cumulative parks survive so
  /// callers can budget helper lifetime across waits.
  void reset() {
    waits_ = 0;
    park_us_ = kMinParkUs;
  }
  int parks() const { return parks_; }

 private:
  static constexpr int kSpinWaits = 10;
  static constexpr int kYieldWaits = 16;
  static constexpr int kMinParkUs = 4;
  static constexpr int kMaxParkUs = 128;
  int waits_ = 0;
  int parks_ = 0;
  int park_us_ = kMinParkUs;
};

/// Parks a helper may accumulate before handing its core back to the pool.
constexpr int kHelperParkBudget = 16;

/// Shared state of one dependency-counted plan execution. One claim queue
/// (`ready`) covers the whole flush: tasks are published into it the moment
/// their producer countdown hits zero — root tasks up front, the rest
/// released by whichever thread finishes the last producer task — and the
/// caller plus up to threads-1 pool helpers claim slots in publication
/// order. The only global synchronization left is the caller's final wait
/// for `completed == task count`.
///
/// Correctness: a task is published only after every producer task
/// finished (countdown release/acquire chain), so claiming in publication
/// order respects the chain DAG; concurrent tasks write disjoint outputs,
/// so results stay bit-identical to the inline walk.
///
/// Liveness: slots are claimed in order, so a thread waiting on slot h has
/// slots < h all claimed; published tasks are always claimed-and-run, every
/// finished producer releases its consumers, and roots are pre-published —
/// by induction on the contracted DAG some thread always makes progress,
/// and a claim of slot >= task count (only possible once the plan drained)
/// returns immediately. Helpers may bail only *before* claiming a slot; a
/// claimed slot is always executed, so `completed` reaching the task count
/// — the caller's exit condition — implies every task ran.
///
/// Heap-shared: a helper dequeued late finds everything claimed, returns,
/// and drops its reference; the caller returns only after every task
/// completed, so ops may be recycled immediately after.
struct DepDriver {
  Plan plan;
  std::unique_ptr<std::atomic<std::uint32_t>[]> pending;  // per DepNode
  std::unique_ptr<std::atomic<std::uint32_t>[]> ready;    // per slot: task id + 1
  std::atomic<std::uint32_t> head{0};
  std::atomic<std::uint32_t> tail{0};
  std::atomic<std::uint32_t> completed{0};

  explicit DepDriver(Plan p)
      : plan(std::move(p)),
        pending(new std::atomic<std::uint32_t>[plan.dep_nodes().size()]),
        ready(new std::atomic<std::uint32_t>[plan.tasks().size()]) {
    const std::vector<DepNode>& nodes = plan.dep_nodes();
    for (std::size_t i = 0; i < plan.tasks().size(); ++i)
      ready[i].store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < nodes.size(); ++i)
      pending[i].store(nodes[i].in_tasks, std::memory_order_relaxed);
    for (std::size_t i = 0; i < nodes.size(); ++i)
      if (nodes[i].in_tasks == 0) publish(static_cast<std::uint32_t>(i));
  }

  void publish(std::uint32_t node) {
    const DepNode& nd = plan.dep_nodes()[node];
    for (std::uint32_t t = 0; t < nd.task_count; ++t) {
      const std::uint32_t slot = tail.fetch_add(1, std::memory_order_relaxed);
      ready[slot].store(nd.first_task + t + 1, std::memory_order_release);
    }
  }

  void finish(std::uint32_t task) {
    const DepNode& nd = plan.dep_nodes()[plan.task_node()[task]];
    const std::vector<std::uint32_t>& consumers = plan.dep_consumers();
    for (std::uint32_t c = nd.consumers_begin; c < nd.consumers_end; ++c) {
      const std::uint32_t peer = consumers[c];
      // acq_rel: the zeroing decrement observes every producer task's
      // writes through the release sequence, so the published tasks may
      // read their inputs without further synchronization.
      if (pending[peer].fetch_sub(1, std::memory_order_acq_rel) == 1)
        publish(peer);
    }
    completed.fetch_add(1, std::memory_order_acq_rel);
  }

  void drive(bool caller) {
    const std::uint32_t n = static_cast<std::uint32_t>(plan.tasks().size());
    const ChainTask* tasks = plan.tasks().data();
    const Chunk* steps = plan.steps();
    Backoff backoff;
    for (;;) {
      if (completed.load(std::memory_order_acquire) >= n) return;
      std::uint32_t h = head.load(std::memory_order_relaxed);
      if (h >= tail.load(std::memory_order_acquire)) {
        // Nothing visibly claimable. Helpers with an exhausted park budget
        // return their core to the pool (never after a claim); the caller
        // waits out the flush.
        if (!caller && backoff.parks() >= kHelperParkBudget) return;
        backoff.pause();
        continue;
      }
      h = head.fetch_add(1, std::memory_order_relaxed);
      if (h >= n) {
        // Overshoot race on the last slots: no task will ever land here.
        if (!caller) return;
        backoff.pause();
        continue;
      }
      // The slot is committed to this thread now: wait out the (rare) gap
      // between the observed tail bump and the publisher's slot store, or
      // between our claim and a racing publisher.
      std::uint32_t enc;
      while ((enc = ready[h].load(std::memory_order_acquire)) == 0)
        backoff.pause();
      backoff.reset();
      const ChainTask& t = tasks[enc - 1];
      for (std::uint32_t s = 0; s < t.count; ++s) run_chunk(steps[t.first + s]);
      finish(enc - 1);
    }
  }
};

}  // namespace

// ---- Executor --------------------------------------------------------------

int nn_threads_from_env(int fallback) {
  const int t = static_cast<int>(env_int("DEEPSEQ_NN_THREADS", fallback));
  return t >= 1 ? t : fallback;
}

Executor::Executor() = default;

Executor::Executor(runtime::ThreadPool* pool, int threads)
    : pool_(pool), threads_(std::max(1, threads)) {
  if (threads_ <= 1) pool_ = nullptr;
}

Executor::~Executor() = default;

Executor& Executor::global() {
  static Executor* e = [] {
    const int hw = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    const int threads = nn_threads_from_env(hw);
    auto* exec = new Executor();
    if (threads > 1) {
      exec->owned_pool_ = std::make_unique<runtime::ThreadPool>(threads);
      exec->pool_ = exec->owned_pool_.get();
      exec->threads_ = threads;
    }
    return exec;
  }();
  return *e;
}

Executor& Executor::current() {
  return g_current_executor != nullptr ? *g_current_executor : global();
}

void Executor::run_plan(Plan plan) {
  if (plan.empty()) return;
  // Without a dependency layer DepDriver would publish nothing and spin
  // forever; reject on every path so the inline walk can't mask it.
  if (!plan.dep_linked())
    throw Error(
        "nn::Executor: plan has no dependency layer (build it with "
        "Plan::build or call link_cuts_sequential before running)");
  const std::uint32_t max_tasks = plan.max_cut_tasks();
  if (threads_ <= 1 || pool_ == nullptr || max_tasks <= 1 ||
      plan.total_work() < kMinParallelFlushWork) {
    // Inline: tasks are stored grouped by cut, in cut order, and every
    // task's steps are in chain order — walking them flat is a valid
    // topological order and exactly the sequential execution.
    const Chunk* steps = plan.steps();
    for (const ChainTask& t : plan.tasks())
      for (std::uint32_t s = 0; s < t.count; ++s) run_chunk(steps[t.first + s]);
    return;
  }
  const int helpers =
      std::min(threads_ - 1, static_cast<int>(max_tasks) - 1);
  if (g_trace != nullptr) g_trace->parallel_flushes += 1;
  auto driver = std::make_shared<DepDriver>(std::move(plan));
  for (int h = 0; h < helpers; ++h)
    pool_->submit([driver] { driver->drive(false); });
  // The caller participates and returns only after every task completed —
  // the flush's single global sync.
  driver->drive(true);
}

void Executor::run(Plan plan) {
  kernels::refresh_from_env();
  if (g_trace == nullptr) {
    run_plan(std::move(plan));
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  g_trace->flushes += 1;
  g_trace->chains += static_cast<int>(plan.stats().chains);
  g_trace->fused_ops += static_cast<int>(plan.stats().fused_ops);
  g_trace->steps += static_cast<int>(plan.step_count());
  g_trace->simd_lanes = kernels::lanes();
  // Scheduler-structural counters: what the dependency-counted schedule
  // pays for this plan, regardless of core count (the inline path executes
  // the same schedule degenerately).
  g_trace->global_syncs += static_cast<int>(plan.global_syncs());
  g_trace->released_chains += static_cast<int>(plan.released_task_count());
  for (int b = 0; b < kChainHistBuckets; ++b)
    g_trace->chain_len_hist[b] +=
        static_cast<int>(plan.stats().chain_len_hist[b]);
  run_plan(std::move(plan));
  g_trace->flush_ms.push_back(std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
}

void Executor::run_backward(const std::vector<Op*>& ops) {
  kernels::refresh_from_env();
  Plan plan;
  plan.reserve(ops.size(), ops.size(), ops.size());
  std::vector<int> part_chunks;
  // Open fused run of sequential per-op backward steps: consecutive
  // non-chunkable ops extend it instead of each opening a cut of its own.
  bool run_open = false;
  for (Op* op : ops) {
    const std::vector<BwPart> parts = backward_parts(*op);
    if (parts.empty()) continue;
    std::uint64_t total = 0;
    for (const BwPart& p : parts) total += p.work;

    // Chunk the parts (shared splitting rule with the forward planner);
    // aliased operands keep the sequential scatter order.
    const bool chunkable = !op_inputs_alias(*op) && threads_ > 1;
    int split_chunks = 0;
    part_chunks.clear();
    if (chunkable)
      for (const BwPart& p : parts) {
        part_chunks.push_back(chunk_count(p.work, p.extent, threads_));
        split_chunks += part_chunks.back();
      }
    if (!chunkable || split_chunks <= 1) {
      // Single-chunk op (or aliasing): prep + every part in one sequential
      // step, chained into one task with the preceding non-chunkable ops.
      // The op order (and thus every scatter's accumulation order) is
      // unchanged; the run just stops re-synchronizing between ops that
      // were never going to run concurrently anyway.
      if (run_open) {
        plan.extend_task(Chunk{op, 0, 0, kRoleAll}, total);
      } else {
        plan.add_cut();
        plan.add_task(total);
        plan.add_step(Chunk{op, 0, 0, kRoleAll});
        run_open = true;
      }
      continue;
    }
    run_open = false;
    // Allocate input grads in a cut of their own, before any scatter runs.
    plan.add_cut();
    plan.add_task(1);
    plan.add_step(Chunk{op, 0, 0, kRolePrep});
    plan.add_cut();
    for (std::size_t k = 0; k < parts.size(); ++k) {
      const BwPart& p = parts[k];
      const int nchunks = part_chunks[k];
      const std::uint64_t share =
          p.work / static_cast<std::uint64_t>(nchunks);
      const int base = p.extent / nchunks, rem = p.extent % nchunks;
      int begin = 0;
      for (int i = 0; i < nchunks; ++i) {
        const int len = base + (i < rem ? 1 : 0);
        plan.add_task(share);
        plan.add_step(Chunk{op, begin, begin + len, p.role});
        begin += len;
      }
    }
  }
  // Backward cuts must stay ordered (scatter accumulation order); the
  // sequential cut chain gives the dep scheduler that ordering with one
  // end-of-run sync.
  plan.link_cuts_sequential();
  run_plan(std::move(plan));
}

// ---- scopes ----------------------------------------------------------------

ExecutorScope::ExecutorScope(Executor& e) : prev_(g_current_executor) {
  g_current_executor = &e;
}

ExecutorScope::~ExecutorScope() { g_current_executor = prev_; }

ExecTraceScope::ExecTraceScope(ExecStats& stats) : prev_(g_trace) {
  g_trace = &stats;
}

ExecTraceScope::~ExecTraceScope() { g_trace = prev_; }

ExecStats* ExecTraceScope::active() { return g_trace; }

}  // namespace deepseq::nn
