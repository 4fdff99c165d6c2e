#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/plan.hpp"

namespace deepseq::runtime {
class ThreadPool;
}

namespace deepseq::nn {

/// Resolve the DEEPSEQ_NN_THREADS knob (strict env_int): the explicit value
/// when set, else `fallback` (the shared pool's size, or hardware
/// concurrency for the process-global executor). 1 selects the sequential
/// path; values < 1 fall back too.
int nn_threads_from_env(int fallback);

/// Per-flush execution counters, collected when an ExecTraceScope is active
/// on the calling thread (benches and the structural CI gate use this).
/// `chains`/`chain_len_hist`/`global_syncs`/`released_chains` are
/// structural properties of the built plans — independent of how many
/// cores actually ran them.
///
/// The fused no-grad DeepSeq pass (DeepSeqModel::embed) records no ops and
/// builds no plans, so it reports through the same fields: one `flushes` /
/// `flush_ms` entry per level sweep, one `steps` per level, its state-row
/// reads in `slab_gather_rows` and `simd_lanes`; the planner and scheduler
/// counters stay 0.
struct ExecStats {
  int flushes = 0;
  int chains = 0;     // chain clusters planned (fused chains + singletons)
  int steps = 0;      // kernel steps executed (fused pass: levels)
  int fused_ops = 0;  // ops that rode inside a multi-op chain
  /// Plans (forward flushes and backward runs) that enlisted pool helpers
  /// instead of running inline.
  int parallel_flushes = 0;
  /// Global synchronization points paid: one end-of-flush completion wait
  /// per flush.
  int global_syncs = 0;
  /// Chain tasks released straight to the claim queue by a finishing
  /// producer (the rest are runnable at flush start).
  int released_chains = 0;
  /// Node-state rows the fused inference pass copied out of its N x d
  /// state tensor (level operands and the flip-flop step). The name
  /// predates the fused pass and is kept for readers of the counter.
  int slab_gather_rows = 0;
  int simd_lanes = 1;  // kernel lane width of the last flush (8 = AVX2)
  std::array<int, kChainHistBuckets> chain_len_hist{};  // chains by length
  std::vector<double> flush_ms;  // one entry per Graph::flush, in call order
};

/// The execute layer: runs a Plan's chain tasks — and taped ops' backward
/// kernels — over a shared runtime::ThreadPool. The calling thread always
/// participates (it drains the same claim queue the pool helpers do), so
/// executors may safely share the pool that is running their caller: a
/// saturated pool degrades to inline execution instead of deadlocking.
///
/// Results are bit-identical to sequential execution at any thread count
/// and either DEEPSEQ_NN_SIMD setting:
/// every output element is produced by exactly one step with the same
/// per-element operation order as the single-chunk scalar kernel (the SIMD
/// layer guarantees this per kernel), concurrent chain tasks write disjoint
/// outputs (distinct ops, or disjoint row ranges of a row-split chain), the
/// dependency-counted schedule releases a task only after every producer
/// task finished, and backward kernels are chunked only where gradient
/// scatter targets are provably disjoint (aliased operands fall back to the
/// sequential order).
class Executor {
 public:
  /// Sequential executor (the DEEPSEQ_NN_THREADS=1 path).
  Executor();
  /// Run plans with up to `threads` workers on `pool` (non-owning; must
  /// outlive the executor). threads <= 1 never touches the pool.
  Executor(runtime::ThreadPool* pool, int threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int threads() const { return threads_; }
  runtime::ThreadPool* pool() const { return pool_; }

  /// Execute a flushed batch: each chain task runs once its producer tasks
  /// finished, independent tasks potentially in parallel, each task's steps
  /// sequentially on one thread. Fills taped ops' backward byproducts
  /// (argmax, saved). Takes the plan by value: pool helpers share the
  /// schedule and may outlive the call. Throws deepseq::Error for a
  /// non-empty plan without a dependency layer (see Plan::dep_linked).
  void run(Plan plan);

  /// Run the backward kernels of `ops` (already in reverse topological
  /// order). Chunkable ops (disjoint scatter targets) keep their own
  /// prep + parts cuts; consecutive non-chunkable ops fuse into one
  /// sequential chain task.
  /// Ops whose output never received a gradient are skipped, exactly as in
  /// sequential backward.
  void run_backward(const std::vector<Op*>& ops);

  /// Process-global executor: owns a pool sized by DEEPSEQ_NN_THREADS
  /// (default: hardware concurrency). DEEPSEQ_NN_THREADS=1 keeps everything
  /// on the calling thread.
  static Executor& global();

  /// The executor Graph flushes use on this thread: the innermost active
  /// ExecutorScope's, or global().
  static Executor& current();

 private:
  friend class ExecutorScope;

  /// Dispatch one plan: inline when small/sequential; otherwise the
  /// dependency-counted DepDriver (tasks released to one claim queue as
  /// their producers finish, a single end-of-flush completion wait). The
  /// caller participates; up to threads-1 pool helpers are enlisted once
  /// for the whole plan and stay hot across releases. Rejects unlinked
  /// plans on both paths.
  void run_plan(Plan plan);

  runtime::ThreadPool* pool_ = nullptr;
  std::unique_ptr<runtime::ThreadPool> owned_pool_;
  int threads_ = 1;
};

/// RAII thread-local executor override: Graphs flushed on this thread while
/// the scope is alive use `e` (api::Session runs each task's embed and head
/// on its engine's executor this way).
class ExecutorScope {
 public:
  explicit ExecutorScope(Executor& e);
  ~ExecutorScope();
  ExecutorScope(const ExecutorScope&) = delete;
  ExecutorScope& operator=(const ExecutorScope&) = delete;

 private:
  Executor* prev_;
};

/// RAII per-flush stats collection on the calling thread (benches and
/// traced serving).
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
