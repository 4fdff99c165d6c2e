#include "nn/plan.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace deepseq::nn {

const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kAddRow: return "add_row";
    case OpKind::kMatmul: return "matmul";
    case OpKind::kScale: return "scale";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kTanh: return "tanh";
    case OpKind::kRelu: return "relu";
    case OpKind::kOneMinus: return "one_minus";
    case OpKind::kConcatCols: return "concat_cols";
    case OpKind::kGather: return "gather";
    case OpKind::kSegmentSoftmax: return "segment_softmax";
    case OpKind::kMulCol: return "mul_col";
    case OpKind::kSegmentSum: return "segment_sum";
    case OpKind::kSegmentMax: return "segment_max";
    case OpKind::kL1Loss: return "l1_loss";
    case OpKind::kL1LossWeighted: return "l1_loss_weighted";
    case OpKind::kSoftmaxXent: return "softmax_cross_entropy";
  }
  return "?";
}

std::uint64_t op_work(const Op& op) {
  const Tensor& out = op.out->value;
  switch (op.kind) {
    case OpKind::kMatmul:
      return 2ull * static_cast<std::uint64_t>(out.rows()) *
             static_cast<std::uint64_t>(op.inputs[0]->value.cols()) * out.cols();
    case OpKind::kSegmentSum:
    case OpKind::kSegmentMax:
    case OpKind::kL1Loss:
    case OpKind::kL1LossWeighted:
    case OpKind::kSegmentSoftmax:
      return static_cast<std::uint64_t>(op.inputs[0]->value.size());
    case OpKind::kSoftmaxXent:
      // exp-heavy: weight the per-element cost up so it counts as real work.
      return 8ull * static_cast<std::uint64_t>(op.inputs[0]->value.size());
    case OpKind::kSigmoid:
    case OpKind::kTanh:
      return 4ull * static_cast<std::uint64_t>(out.size());
    default:
      return static_cast<std::uint64_t>(out.size());
  }
}

int op_parallel_extent(const Op& op) {
  switch (op.kind) {
    case OpKind::kSegmentSum:
    case OpKind::kSegmentMax:
      return op.out->value.cols();
    case OpKind::kSegmentSoftmax:
    case OpKind::kL1Loss:
    case OpKind::kL1LossWeighted:
    case OpKind::kSoftmaxXent:
      return 0;  // scalar reduction / ordered accumulation: one chunk
    default:
      return op.out->value.rows();
  }
}

int chunk_count(std::uint64_t work, int extent, int threads) {
  if (threads <= 1 || extent <= 1) return 1;
  const int cap = std::min(threads, extent);
  return std::max(1, static_cast<int>(std::min<std::uint64_t>(
                         work / kSplitWork, static_cast<std::uint64_t>(cap))));
}

int chain_len_bucket(int len) {
  if (len <= 1) return 0;
  if (len <= 4) return len - 1;
  if (len <= 8) return 4;
  if (len <= 16) return 5;
  if (len <= 32) return 6;
  return 7;
}

const char* chain_len_bucket_name(int bucket) {
  static const char* const kNames[kChainHistBuckets] = {
      "1", "2", "3", "4", "5-8", "9-16", "17-32", "33+"};
  return (bucket >= 0 && bucket < kChainHistBuckets) ? kNames[bucket] : "?";
}

namespace {

/// Kinds whose output row r reads only row r of chain-internal inputs, so a
/// chain of them over equal row counts may be split into row-range tasks
/// (matmul's B operand, add_row's row vector and every gather input must be
/// chain-external — checked separately at fuse time).
bool row_aligned_kind(OpKind k) {
  switch (k) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kAddRow:
    case OpKind::kMatmul:
    case OpKind::kScale:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kRelu:
    case OpKind::kOneMinus:
    case OpKind::kConcatCols:
    case OpKind::kGather:
    case OpKind::kMulCol:
      return true;
    default:
      return false;
  }
}

/// Emit a lone op: its chunks become single-step tasks of the current cut
/// (so intra-op row/column parallelism is preserved).
void emit_single_op(Plan& plan, Op* op, std::uint64_t work, int threads) {
  const int extent = op_parallel_extent(*op);
  if (extent <= 0) {
    plan.add_task(work);
    plan.add_step(Chunk{op, 0, 0, kRoleForward});
    return;
  }
  const int chunks = chunk_count(work, extent, threads);
  const std::uint64_t share = work / static_cast<std::uint64_t>(chunks);
  const int base = extent / chunks, rem = extent % chunks;
  int begin = 0;
  for (int i = 0; i < chunks; ++i) {
    const int len = base + (i < rem ? 1 : 0);
    plan.add_task(share);
    plan.add_step(Chunk{op, begin, begin + len, kRoleForward});
    begin += len;
  }
}

}  // namespace

std::uint64_t Plan::total_work() const {
  std::uint64_t total = 0;
  for (const CutWave& c : cuts_) total += c.work;
  return total;
}

std::uint32_t Plan::max_cut_tasks() const {
  std::uint32_t m = 0;
  for (const CutWave& c : cuts_) m = std::max(m, c.task_count);
  return m;
}

void Plan::reserve(std::size_t cuts, std::size_t tasks, std::size_t steps) {
  cuts_.reserve(cuts);
  tasks_.reserve(tasks);
  steps_.reserve(steps);
}

Plan Plan::build(const std::vector<Op*>& ops, int threads) {
  Plan plan;
  const std::size_t n = ops.size();
  if (n == 0) return plan;
  plan.stats_.ops = static_cast<std::uint32_t>(n);
  if (n == 1) {  // eager fast path: no clustering needed
    Op* op = ops[0];
    plan.stats_.chains = 1;
    plan.stats_.chain_len_hist[chain_len_bucket(1)] += 1;
    plan.add_cut();
    emit_single_op(plan, op, op_work(*op), threads);
    plan.link_cuts_sequential();
    return plan;
  }

  // Ops arrive in creation order, so every in-batch producer precedes its
  // consumers; one forward scan resolves the DAG. Producer indices live in
  // the output nodes themselves, tagged with a fresh epoch per build — a
  // node whose epoch doesn't match was materialized before this batch (a
  // batch-external input, complete before the plan runs).
  static std::atomic<std::uint64_t> g_epoch{0};
  const std::uint64_t epoch = g_epoch.fetch_add(1, std::memory_order_relaxed) + 1;

  // ---- pass 1: distinct in-batch producers per op + out-degrees -----------
  std::vector<std::uint32_t> prod_off(n + 1, 0);
  std::vector<std::uint32_t> prods;
  prods.reserve(2 * n);
  std::vector<std::uint32_t> outdeg(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    Op* op = ops[i];
    const std::size_t start = prods.size();
    for (const Var& in : op->inputs) {
      if (in->plan_epoch != epoch) continue;
      const std::uint32_t p = static_cast<std::uint32_t>(in->plan_wave);
      bool dup = false;
      for (std::size_t k = start; k < prods.size() && !dup; ++k)
        dup = prods[k] == p;
      if (!dup) {
        prods.push_back(p);
        ++outdeg[p];
      }
    }
    op->out->plan_epoch = epoch;
    op->out->plan_wave = static_cast<int>(i);
    prod_off[i + 1] = static_cast<std::uint32_t>(prods.size());
  }

  // ---- pass 2: union-find gather-cut fusion --------------------------------
  //
  // Clusters are rooted at their last-appended op (the tail). Per root:
  //   esc     — edges from cluster members to ops outside the cluster. An op
  //             may absorb a producer cluster only when ALL of that cluster's
  //             escaping edges point at the op itself; this internalizes the
  //             last escapes and provably keeps the contracted DAG acyclic
  //             (any would-be cycle needs an escape from a non-tail member,
  //             which a successful union rules out), and it means no other
  //             consumer ever observed the cluster's level — delaying the
  //             merged cluster to a later cut is always safe.
  //   lvl     — the cluster's cut index: max over external in-edges of the
  //             producing cluster's lvl, plus one.
  //   aligned — every member reads chain-internal inputs row-aligned and all
  //             member outputs share crows rows: the cluster may be split
  //             into row-range tasks with bit-identical results.
  //   cwork/csize — summed op_work and member count.
  std::vector<std::uint32_t> uf(n), esc(n), lvl(n), csize(n);
  std::vector<std::uint64_t> cwork(n);
  std::vector<int> crows(n);
  std::vector<char> caligned(n);
  const auto find = [&uf](std::uint32_t x) {
    while (uf[x] != x) {
      uf[x] = uf[uf[x]];
      x = uf[x];
    }
    return x;
  };

  std::vector<std::uint32_t> roots, redges;  // per-op scratch, reused
  std::vector<char> rfusable, rselect;
  std::vector<std::uint32_t> forbid;
  for (std::size_t i = 0; i < n; ++i) {
    Op* op = ops[i];
    const std::uint32_t ui = static_cast<std::uint32_t>(i);
    uf[ui] = ui;
    const std::uint64_t wi = op_work(*op);
    const int rows_i = op->out->value.rows();
    const bool kind_aligned = row_aligned_kind(op->kind);

    // Distinct producer clusters and the edge count from each into this op.
    roots.clear();
    redges.clear();
    for (std::uint32_t k = prod_off[i]; k < prod_off[i + 1]; ++k) {
      const std::uint32_t r = find(prods[k]);
      bool seen = false;
      for (std::size_t j = 0; j < roots.size() && !seen; ++j)
        if (roots[j] == r) {
          ++redges[j];
          seen = true;
        }
      if (!seen) {
        roots.push_back(r);
        redges.push_back(1);
      }
    }
    rfusable.assign(roots.size(), 0);
    for (std::size_t j = 0; j < roots.size(); ++j)
      rfusable[j] = esc[roots[j]] == redges[j];

    // Clusters producing externality-sensitive operands: matmul's B and
    // add_row's row vector are read whole by every output row, and gather
    // reads arbitrary rows of every input — none of them may be computed
    // inside a row-split chain.
    forbid.clear();
    switch (op->kind) {
      case OpKind::kMatmul:
      case OpKind::kAddRow:
        if (op->inputs[1]->plan_epoch == epoch)
          forbid.push_back(
              find(static_cast<std::uint32_t>(op->inputs[1]->plan_wave)));
        break;
      case OpKind::kGather:
        for (const Var& in : op->inputs)
          if (in->plan_epoch == epoch)
            forbid.push_back(find(static_cast<std::uint32_t>(in->plan_wave)));
        break;
      default:
        break;
    }
    const auto forbidden = [&forbid](std::uint32_t r) {
      for (const std::uint32_t f : forbid)
        if (f == r) return true;
      return false;
    };

    // Case A — aligned merge: absorb fusable aligned producer clusters of
    // matching row count; the merged chain stays row-splittable, so no
    // parallelism is lost (row-range tasks carry each slice end to end).
    std::size_t a_count = 0;
    rselect.assign(roots.size(), 0);
    if (kind_aligned) {
      for (std::size_t j = 0; j < roots.size(); ++j)
        if (rfusable[j] && caligned[roots[j]] && crows[roots[j]] == rows_i &&
            !forbidden(roots[j])) {
          rselect[j] = 1;
          ++a_count;
        }
    }

    // Case B — sequential merge of every fusable producer cluster: allowed
    // only when it provably sacrifices no parallel slots (each merged
    // component would have run as a single task anyway) and the
    // non-dominant side work is below one chunk's worth — so deep narrow
    // chains fuse without bound while wide graphs keep their row chunking.
    std::size_t b_count = 0;
    std::uint64_t sum = wi, maxw = wi;
    int lost = chunk_count(wi, op_parallel_extent(*op), threads) - 1;
    for (std::size_t j = 0; j < roots.size(); ++j) {
      if (!rfusable[j]) continue;
      ++b_count;
      const std::uint32_t r = roots[j];
      sum += cwork[r];
      maxw = std::max(maxw, cwork[r]);
      if (caligned[r]) {
        lost += chunk_count(cwork[r], crows[r], threads) - 1;
      } else if (csize[r] == 1) {
        // A lone non-aligned op may still have been column-chunked
        // (segment_sum/segment_max); a singleton's root is the op itself.
        lost += chunk_count(cwork[r], op_parallel_extent(*ops[r]), threads) - 1;
      }
    }
    const bool b_ok = b_count > 0 && lost == 0 && sum - maxw <= kSplitWork;

    const bool use_a = a_count > 0 && !(b_ok && b_count > a_count);
    const bool use_b = !use_a && b_ok;
    if (use_a || use_b) {
      std::uint64_t w = wi;
      std::uint32_t sz = 1, level = 0;
      for (std::size_t j = 0; j < roots.size(); ++j) {
        const std::uint32_t r = roots[j];
        const bool merge = use_b ? rfusable[j] != 0 : rselect[j] != 0;
        if (merge) {
          uf[r] = ui;
          w += cwork[r];
          sz += csize[r];
          level = std::max(level, lvl[r]);
        } else {
          level = std::max(level, lvl[r] + 1);
        }
      }
      cwork[ui] = w;
      csize[ui] = sz;
      lvl[ui] = level;
      caligned[ui] = use_a ? 1 : 0;
    } else {
      std::uint32_t level = 0;
      for (const std::uint32_t r : roots) level = std::max(level, lvl[r] + 1);
      cwork[ui] = wi;
      csize[ui] = 1;
      lvl[ui] = level;
      // A lone op reads every input from outside its own cluster, so any
      // row-aligned kind (gather and matmul included) stays splittable.
      caligned[ui] = kind_aligned ? 1 : 0;
    }
    crows[ui] = rows_i;
    esc[ui] = outdeg[ui];
  }

  // ---- pass 3: order clusters by cut level, emit tasks ---------------------
  std::vector<std::uint32_t> root_of(n);
  std::vector<std::int32_t> cid_of_root(n, -1);
  std::vector<std::uint32_t> cluster_root;
  cluster_root.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    root_of[i] = find(static_cast<std::uint32_t>(i));
    if (cid_of_root[root_of[i]] < 0) {
      cid_of_root[root_of[i]] = static_cast<std::int32_t>(cluster_root.size());
      cluster_root.push_back(root_of[i]);
    }
  }
  const std::size_t nc = cluster_root.size();

  // Members per cluster, in creation order (a topological order of the
  // chain: every member's in-cluster producers were appended earlier).
  std::vector<std::uint32_t> coff(nc + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    ++coff[static_cast<std::size_t>(cid_of_root[root_of[i]]) + 1];
  for (std::size_t c = 0; c < nc; ++c) coff[c + 1] += coff[c];
  std::vector<std::uint32_t> members(n), cursor(coff.begin(), coff.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    members[cursor[static_cast<std::size_t>(cid_of_root[root_of[i]])]++] =
        static_cast<std::uint32_t>(i);

  // Clusters of a cut in first-appearance order: deterministic, and mutually
  // independent by the leveling above.
  std::uint32_t max_level = 0;
  for (std::size_t c = 0; c < nc; ++c)
    max_level = std::max(max_level, lvl[cluster_root[c]]);
  std::vector<std::uint32_t> lvl_off(max_level + 2, 0);
  for (std::size_t c = 0; c < nc; ++c) ++lvl_off[lvl[cluster_root[c]] + 1];
  for (std::size_t l = 0; l <= max_level; ++l) lvl_off[l + 1] += lvl_off[l];
  std::vector<std::uint32_t> order(nc);
  {
    std::vector<std::uint32_t> at(lvl_off.begin(), lvl_off.end() - 1);
    for (std::size_t c = 0; c < nc; ++c)
      order[at[lvl[cluster_root[c]]]++] = static_cast<std::uint32_t>(c);
  }

  plan.reserve(max_level + 1, nc, n);
  std::vector<std::uint32_t> emit_idx(nc);  // cluster -> DepNode id
  plan.dep_nodes_.reserve(nc);
  plan.task_node_.reserve(nc);
  for (std::uint32_t level = 0; level <= max_level; ++level) {
    plan.add_cut();
    for (std::uint32_t pos = lvl_off[level]; pos < lvl_off[level + 1]; ++pos) {
      const std::uint32_t c = order[pos];
      const std::uint32_t root = cluster_root[c];
      const std::uint32_t size = coff[c + 1] - coff[c];
      emit_idx[c] = static_cast<std::uint32_t>(plan.dep_nodes_.size());
      const std::uint32_t node_first_task =
          static_cast<std::uint32_t>(plan.tasks_.size());
      plan.stats_.chains += 1;
      plan.stats_.chain_len_hist[chain_len_bucket(static_cast<int>(size))] += 1;
      if (size == 1) {
        Op* op = ops[members[coff[c]]];
        emit_single_op(plan, op, cwork[root], threads);
        plan.dep_nodes_.push_back(DepNode{
            node_first_task,
            static_cast<std::uint32_t>(plan.tasks_.size()) - node_first_task, 0,
            0, 0});
        while (plan.task_node_.size() < plan.tasks_.size())
          plan.task_node_.push_back(emit_idx[c]);
        continue;
      }
      plan.stats_.fused_ops += size;
      if (caligned[root]) {
        // Row-splittable chain: K tasks, each carrying its row slice
        // through every step — same disjoint-output coverage and inner
        // order as per-op chunks, so results stay bit-identical.
        const int rows = crows[root];
        const int k = chunk_count(cwork[root], rows, threads);
        const std::uint64_t share =
            cwork[root] / static_cast<std::uint64_t>(k);
        const int base = rows / k, rem = rows % k;
        int begin = 0;
        for (int t = 0; t < k; ++t) {
          const int len = base + (t < rem ? 1 : 0);
          plan.add_task(share);
          for (std::uint32_t m = coff[c]; m < coff[c + 1]; ++m)
            plan.add_step(
                Chunk{ops[members[m]], begin, begin + len, kRoleForward});
          begin += len;
        }
      } else {
        // Sequential chain: one thread runs every step full-extent, in
        // creation order — exactly the sequential execution of the chain.
        plan.add_task(cwork[root]);
        for (std::uint32_t m = coff[c]; m < coff[c + 1]; ++m) {
          Op* op = ops[members[m]];
          const int extent = op_parallel_extent(*op);
          plan.add_step(
              Chunk{op, 0, extent > 0 ? extent : 0, kRoleForward});
        }
      }
      plan.dep_nodes_.push_back(DepNode{
          node_first_task,
          static_cast<std::uint32_t>(plan.tasks_.size()) - node_first_task, 0,
          0, 0});
      while (plan.task_node_.size() < plan.tasks_.size())
        plan.task_node_.push_back(emit_idx[c]);
    }
  }

  // ---- pass 4: dependency edges over the contracted DAG --------------------
  //
  // For every cross-cluster producer edge, record producer-node ->
  // consumer-node (deduplicated per consumer) and seed the consumer's
  // countdown with the producer's task count. Nodes were emitted in cut
  // order, so every producer's task_count is final by the time its
  // consumers sum it.
  {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(n);
    std::vector<std::uint32_t> mark(nc, 0xFFFFFFFFu);
    for (std::size_t c = 0; c < nc; ++c) {
      const std::uint32_t ce = emit_idx[c];
      const std::uint32_t root = cluster_root[c];
      for (std::uint32_t m = coff[c]; m < coff[c + 1]; ++m) {
        const std::uint32_t i = members[m];
        for (std::uint32_t k = prod_off[i]; k < prod_off[i + 1]; ++k) {
          const std::uint32_t rp = find(prods[k]);
          if (rp == root) continue;
          const std::uint32_t pe =
              emit_idx[static_cast<std::size_t>(cid_of_root[rp])];
          if (mark[pe] == ce) continue;
          mark[pe] = ce;
          edges.emplace_back(pe, ce);
          plan.dep_nodes_[ce].in_tasks += plan.dep_nodes_[pe].task_count;
        }
      }
    }
    std::vector<std::uint32_t> ccount(nc, 0);
    for (const auto& e : edges) ++ccount[e.first];
    plan.consumers_.resize(edges.size());
    std::uint32_t off = 0;
    for (std::size_t p = 0; p < nc; ++p) {
      plan.dep_nodes_[p].consumers_begin = off;
      off += ccount[p];
      plan.dep_nodes_[p].consumers_end = plan.dep_nodes_[p].consumers_begin;
    }
    for (const auto& e : edges)
      plan.consumers_[plan.dep_nodes_[e.first].consumers_end++] = e.second;
    plan.dep_linked_ = true;
  }
  return plan;
}

std::uint32_t Plan::released_task_count() const {
  std::uint32_t released = 0;
  for (const DepNode& nd : dep_nodes_)
    if (nd.in_tasks > 0) released += nd.task_count;
  return released;
}

void Plan::link_cuts_sequential() {
  dep_nodes_.clear();
  consumers_.clear();
  task_node_.assign(tasks_.size(), 0);
  dep_nodes_.reserve(cuts_.size());
  consumers_.reserve(cuts_.size());
  std::uint32_t prev = 0xFFFFFFFFu;  // last non-empty node id
  for (std::size_t w = 0; w < cuts_.size(); ++w) {
    if (cuts_[w].task_count == 0) continue;
    const std::uint32_t id = static_cast<std::uint32_t>(dep_nodes_.size());
    DepNode nd{cuts_[w].first_task, cuts_[w].task_count, 0, 0, 0};
    if (prev != 0xFFFFFFFFu) {
      nd.in_tasks = dep_nodes_[prev].task_count;
      dep_nodes_[prev].consumers_begin =
          static_cast<std::uint32_t>(consumers_.size());
      consumers_.push_back(id);
      dep_nodes_[prev].consumers_end =
          static_cast<std::uint32_t>(consumers_.size());
    }
    for (std::uint32_t t = 0; t < nd.task_count; ++t)
      task_node_[nd.first_task + t] = id;
    dep_nodes_.push_back(nd);
    prev = id;
  }
  dep_linked_ = true;
}

}  // namespace deepseq::nn
