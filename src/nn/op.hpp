#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "nn/graph.hpp"
#include "nn/tensor.hpp"

namespace deepseq::nn {

/// Operation kinds of the record layer. Every Graph op method builds one Op
/// and runs its forward kernel at once (nn::run_forward); nn::run_backward
/// (executor.hpp) walks the taped ones from last to first.
enum class OpKind : std::uint8_t {
  kAdd,
  kSub,
  kMul,
  kAddRow,
  kMatmul,
  kScale,
  kSigmoid,
  kTanh,
  kRelu,
  kOneMinus,
  kConcatCols,
  kGather,
  kSegmentSoftmax,
  kMulCol,
  kSegmentSum,
  kSegmentMax,
  kL1Loss,
  kL1LossWeighted,
  kSoftmaxXent,
  kCustom,  // kernels supplied by the recorder (Graph::custom)
};

/// Ordered operand list with inline storage for the common case: all but
/// concat_cols and gather reference at most two Vars, so steady-state
/// recording never heap-allocates for operands. Past the inline capacity the
/// whole list moves to a spill vector (elements stay contiguous either way),
/// whose capacity survives clear() — recycled Ops re-record into warm
/// storage.
class InlineInputs {
 public:
  static constexpr std::size_t kInline = 2;

  InlineInputs() = default;

  InlineInputs& operator=(std::initializer_list<Var> vs) {
    clear();
    for (const Var& v : vs) push_back(v);
    return *this;
  }

  void assign(const std::vector<Var>& vs) {
    clear();
    for (const Var& v : vs) push_back(v);
  }

  void push_back(const Var& v) {
    if (size_ < kInline) {
      inline_[size_] = v;
    } else {
      if (size_ == kInline && spill_.empty()) {
        spill_.reserve(kInline * 2);
        for (std::size_t i = 0; i < kInline; ++i)
          spill_.push_back(std::move(inline_[i]));
        for (std::size_t i = 0; i < kInline; ++i) inline_[i].reset();
      }
      spill_.push_back(v);
    }
    ++size_;
  }

  void clear() {
    for (std::size_t i = 0; i < kInline; ++i) inline_[i].reset();
    spill_.clear();  // keeps capacity: recycled ops reuse the allocation
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const Var& operator[](std::size_t i) const { return begin()[i]; }
  Var& operator[](std::size_t i) {
    return const_cast<Var*>(begin())[i];
  }

  const Var* begin() const { return size_ <= kInline ? inline_ : spill_.data(); }
  const Var* end() const { return begin() + size_; }

 private:
  Var inline_[kInline];
  std::vector<Var> spill_;
  std::uint32_t size_ = 0;
};

/// One recorded operation: output node, ordered operands, and the
/// arguments its kernels need. Ops double as the autograd tape entries:
/// forward-pass byproducts the backward kernels consume (`argmax`, `saved`)
/// are filled in when the op is recorded, before any backward runs.
struct Op {
  OpKind kind = OpKind::kAdd;
  Var out;
  /// Ordered operands. For kGather these are the unique referenced Vars
  /// (the per-row fan-out lives in `refs`).
  InlineInputs inputs;

  float scalar = 0.0f;       // kScale factor
  std::vector<int> segment;  // segment ops: row -> segment; kSoftmaxXent: labels
  int num_segments = 0;
  std::vector<RowRef> refs;  // kGather source rows
  Tensor attr_a;             // loss target
  Tensor attr_b;             // loss weight
  std::vector<int> argmax;   // kSegmentMax: argmax rows, filled by forward
  Tensor saved;              // kSoftmaxXent: softmax cached for backward
  std::unique_ptr<CustomKernels> custom;  // kCustom: both kernels
};

}  // namespace deepseq::nn
