#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "nn/op.hpp"

namespace deepseq::nn {

/// One kernel step: an op plus the slice it covers — a row range for
/// row-parallel kernels (matmul, gather, elementwise, ...), a column range
/// for the segment reductions (whose output rows are scatter targets but
/// whose columns are independent), or the full kernel ({0, 0}) for
/// non-splittable kinds (segment_softmax, the scalar losses). Steps of
/// concurrent tasks write disjoint output regions, so they can run on
/// different threads with bit-identical results: every output element is
/// produced by exactly one step using the same inner-loop order as the
/// sequential kernel.
///
/// `role` selects the kernel: kRoleForward for the forward pass; backward
/// plans (built by Executor::run_backward) use kRolePrep / kRoleAll /
/// part indices >= 0 (one part per gradient target of the op).
struct Chunk {
  Op* op = nullptr;
  int begin = 0;
  int end = 0;
  int role = -1;
};

inline constexpr int kRoleForward = -1;
/// Backward: allocate the op's input gradients (runs alone, before parts).
inline constexpr int kRolePrep = -2;
/// Backward: prep + every part at full range, sequentially (single-chunk ops
/// and aliased operands, which must keep the sequential scatter order).
inline constexpr int kRoleAll = -3;

/// One schedulable unit: a run of steps [first, first + count) in the
/// owning Plan that a single thread executes sequentially, end to end. A
/// fused chain of ops becomes one task (or K row-range tasks when the chain
/// is uniformly row-splittable); a lone op's chunks become one
/// single-step task each.
struct ChainTask {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  std::uint64_t work = 0;
};

/// A cut wave: tasks [first_task, first_task + task_count) that are mutually
/// independent — no task's chain consumes another same-cut task's output.
/// Cuts are the planner's leveling of the contracted chain DAG (they exist
/// only at true fan-in/fan-out points); tasks are stored in cut order, so a
/// flat walk of the tasks is a valid sequential execution. The executor
/// itself orders tasks through the dependency layer, not by cut.
struct CutWave {
  std::uint32_t first_task = 0;
  std::uint32_t task_count = 0;
  std::uint64_t work = 0;
};

/// Estimated scalar operations of one op's forward kernel. Drives chunk
/// sizing, fusion decisions and the inline/parallel decision only — never
/// affects results.
std::uint64_t op_work(const Op& op);

/// Extent of the op's parallel axis (output rows, or columns for the
/// segment reductions); 0 when the kernel must run as one chunk.
int op_parallel_extent(const Op& op);

/// Minimum estimated work per additional chunk: kernels below this run as a
/// single chunk, and one chunk is added per multiple of it (capped by the
/// executor's thread count). Deterministic in the op alone, so a given
/// (batch, thread-count) pair always produces the same chunk boundaries.
inline constexpr std::uint64_t kSplitWork = 8192;

/// The shared splitting rule (forward planning and backward parts): chunks
/// for a kernel of `work` estimated scalar ops over `extent` rows.
int chunk_count(std::uint64_t work, int extent, int threads);

/// Chain-length histogram buckets: 1, 2, 3, 4, 5-8, 9-16, 17-32, 33+.
inline constexpr int kChainHistBuckets = 8;
int chain_len_bucket(int len);
const char* chain_len_bucket_name(int bucket);

/// Structural counters of one built plan, for benches and the CI gate.
struct PlanStats {
  std::uint32_t ops = 0;        // ops planned
  std::uint32_t chains = 0;     // clusters (fused chains + singletons)
  std::uint32_t fused_ops = 0;  // ops riding inside a multi-op chain
  std::array<std::uint32_t, kChainHistBuckets> chain_len_hist{};
};

/// One node of the contracted chain DAG — a planned cluster and its place in
/// the dependency-counted schedule. A node's tasks (row-split slices of an
/// aligned chain, or chunks of a lone op) are mutually independent and
/// become runnable together: the executor seeds a node's countdown at
/// `in_tasks` (the summed task_count of every producer node), decrements it
/// once per finished producer task, and on zero publishes tasks
/// [first_task, first_task + task_count) straight to the claim queue.
/// `consumers_[consumers_begin, consumers_end)` lists the nodes this one
/// feeds. Nodes are emitted producers-first (cut-level order), so ids of
/// producers are always smaller.
struct DepNode {
  std::uint32_t first_task = 0;
  std::uint32_t task_count = 0;
  std::uint32_t consumers_begin = 0;
  std::uint32_t consumers_end = 0;
  std::uint32_t in_tasks = 0;
};

/// The plan layer: a cut-ordered chain-task schedule. build() runs a
/// union-find "gather-cut" pass over the recorded op DAG: an op is unioned
/// into a producer cluster when every escaping edge of that cluster points
/// at it (which provably keeps the contracted DAG acyclic), either
/// preserving row-splittability (aligned chains, which emit K row-range
/// tasks sized for `threads` workers) or sequentially when no parallel
/// slots are lost. Cut waves remain only at the true fan-in/fan-out points.
/// Executor::run_backward assembles backward plans through the same
/// container.
class Plan {
 public:
  static Plan build(const std::vector<Op*>& ops, int threads);

  bool empty() const { return steps_.empty(); }
  const std::vector<CutWave>& cuts() const { return cuts_; }
  const std::vector<ChainTask>& tasks() const { return tasks_; }
  const Chunk* steps() const { return steps_.data(); }
  std::size_t step_count() const { return steps_.size(); }

  const PlanStats& stats() const { return stats_; }

  // ---- dependency-counted schedule ----------------------------------------
  /// True once the dependency layer is populated (build() always links it;
  /// hand-assembled plans opt in via link_cuts_sequential()).
  bool dep_linked() const { return dep_linked_; }
  const std::vector<DepNode>& dep_nodes() const { return dep_nodes_; }
  const std::vector<std::uint32_t>& dep_consumers() const { return consumers_; }
  /// Owning DepNode id per task (parallel to tasks()).
  const std::vector<std::uint32_t>& task_node() const { return task_node_; }
  /// Global synchronization points a dep-scheduled execution performs: the
  /// single end-of-flush completion wait (0 for an empty plan). Structural —
  /// independent of how many cores actually run the plan.
  std::size_t global_syncs() const { return steps_.empty() ? 0 : 1; }
  /// Tasks released by a finishing producer (in_tasks > 0 nodes) under
  /// dependency-counted scheduling; the remainder are runnable at flush
  /// start.
  std::uint32_t released_task_count() const;
  /// Link consecutive cuts as a dependency chain (cut w feeds cut w+1), as
  /// one DepNode per cut: every task of cut w finishes before any task of
  /// cut w+1 starts. The backward planner uses this — per-op scatter
  /// accumulation order must survive — paying countdown releases and one
  /// end-of-flush sync.
  void link_cuts_sequential();

  std::uint64_t total_work() const;
  std::uint32_t max_cut_tasks() const;

  // ---- assembly (build() and the backward planner) -------------------------
  void reserve(std::size_t cuts, std::size_t tasks, std::size_t steps);
  CutWave& add_cut() {
    cuts_.push_back(CutWave{static_cast<std::uint32_t>(tasks_.size()), 0, 0});
    return cuts_.back();
  }
  ChainTask& add_task(std::uint64_t work) {
    tasks_.push_back(
        ChainTask{static_cast<std::uint32_t>(steps_.size()), 0, work});
    ++cuts_.back().task_count;
    cuts_.back().work += work;
    return tasks_.back();
  }
  void add_step(const Chunk& c) {
    steps_.push_back(c);
    ++tasks_.back().count;
  }
  /// Append a step to the current task, crediting `work` to it (the
  /// backward planner grows fused sequential runs this way).
  void extend_task(const Chunk& c, std::uint64_t work) {
    add_step(c);
    tasks_.back().work += work;
    cuts_.back().work += work;
  }

 private:
  std::vector<Chunk> steps_;
  std::vector<ChainTask> tasks_;
  std::vector<CutWave> cuts_;
  std::vector<DepNode> dep_nodes_;
  std::vector<std::uint32_t> consumers_;  // flat consumer lists (CSR)
  std::vector<std::uint32_t> task_node_;  // task index -> DepNode id
  bool dep_linked_ = false;
  PlanStats stats_;
};

}  // namespace deepseq::nn
