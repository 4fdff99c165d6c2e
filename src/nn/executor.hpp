#pragma once

#include <vector>

#include "nn/op.hpp"

namespace deepseq::runtime {
class ThreadPool;
}

namespace deepseq::nn {

/// Execution counters, collected when an ExecTraceScope is active on the
/// calling thread (benches and traced serving use this). Every op a Graph
/// records counts as one flush: one `flushes` / `flush_ms` entry and one
/// `steps`; a Graph::backward adds one `backward_ms` entry. A grad-mode
/// DeepSeq propagation records one op per level update (a Graph::custom
/// op), so each level is one flush there.
///
/// The fused no-grad DeepSeq pass (DeepSeqModel::embed) records no ops and
/// reports through the same fields: one `flushes` / `flush_ms` entry per
/// level sweep, one `steps` per level, its state-row reads in
/// `slab_gather_rows` and `simd_lanes`.
struct ExecStats {
  int flushes = 0;
  int chains = 0;  // always 0; read only by bench/e2e/e2e_ledger.cpp
  int steps = 0;   // ops run (fused pass: levels)
  int global_syncs = 0;  // always 0; read only by bench/e2e/e2e_ledger.cpp
  /// Node-state rows the fused inference pass copied out of its N x d
  /// state tensor (level operands and the flip-flop step). The name
  /// predates the fused pass and is kept for readers of the counter.
  int slab_gather_rows = 0;
  int simd_lanes = 1;  // kernel lane width of the last flush (8 = AVX2)
  std::vector<double> flush_ms;  // one entry per flush, in call order
  /// One entry per Graph::backward, in call order: its backward kernels
  /// and gradient allocation (nn::run_backward).
  std::vector<double> backward_ms;
};

/// The execute layer, on the calling thread. Runs `op`'s forward kernel
/// (Graph::record calls it once per op) and fills a taped op's backward
/// byproducts (argmax, saved).
void run_forward(Op& op);

/// Walks `tape` from last to first (Graph::backward passes its tape, which
/// is in record order) and runs the backward kernels of every op whose
/// output got a gradient; the others are skipped. Each op allocates its
/// input gradients, then accumulates into each gradient target over its
/// full range (a Graph::custom op's kernels take the whole op). Under an
/// ExecTraceScope it appends one `backward_ms` entry.
void run_backward(const std::vector<Op*>& tape);

/// No effect; kept only because bench/e2e/e2e_ledger.cpp constructs one.
class Executor {
 public:
  Executor() = default;
  Executor(runtime::ThreadPool*, int) {}
};

/// No effect; kept only because bench/e2e/e2e_ledger.cpp opens one.
class ExecutorScope {
 public:
  explicit ExecutorScope(Executor&) {}
};

/// RAII stats collection on the calling thread (benches and traced
/// serving).
class ExecTraceScope {
 public:
  explicit ExecTraceScope(ExecStats& stats);
  ~ExecTraceScope();
  /// The calling thread's innermost active stats, or null when untraced.
  static ExecStats* active();
  ExecTraceScope(const ExecTraceScope&) = delete;
  ExecTraceScope& operator=(const ExecTraceScope&) = delete;

 private:
  ExecStats* prev_;
};

}  // namespace deepseq::nn
