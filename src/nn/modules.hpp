#pragma once

#include <string>
#include <vector>

#include "nn/graph.hpp"

namespace deepseq::nn {

/// Named trainable parameter collection — modules expose their parameters
/// through this so the optimizer and (de)serialization see a flat list.
using NamedParams = std::vector<std::pair<std::string, Var>>;

/// Bump allocator for the inference twins (`infer`): float spans stay valid
/// until reset(). Blocks never move, so earlier spans survive later
/// requests, and reset() folds them into one block sized to the high-water
/// mark — a steady-state pass over a circuit allocates nothing.
class Scratch {
 public:
  float* take(std::size_t n);   // uninitialized
  float* zeros(std::size_t n);  // zero-filled (matmul accumulators)
  void reset();

 private:
  std::vector<std::vector<float>> blocks_;
  std::size_t used_ = 0;  // floats handed out of blocks_.back()
};

/// Fully-connected layer: y = x W + b.
class Linear {
 public:
  Linear() = default;
  Linear(int in_dim, int out_dim, Rng& rng, std::string name = "linear");

  Var apply(Graph& g, const Var& x) const;
  /// Inference twin of apply(): out (rows x out_dim) = x W + b with the
  /// same kernels, bit-identical to the recorded ops.
  void infer(const float* x, int rows, float* out) const;
  /// Backward of apply() over the rows an infer() ran on: dy (rows x
  /// out_dim) is the output's gradient. Accumulates into the bias and
  /// weight gradients and, when dx is non-null, into dx (rows x in_dim),
  /// with the taped add_row's and matmul's backward kernels.
  void backward(const float* x, int rows, const float* dy, float* dx) const;

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }
  void collect_params(NamedParams& out) const;

 private:
  int in_dim_ = 0, out_dim_ = 0;
  std::string name_;
  Var w_, b_;
};

enum class Activation { kNone, kRelu, kSigmoid, kTanh };

/// Multi-layer perceptron with ReLU between hidden layers (paper §IV-A3:
/// the regressors are 3-layer MLPs with ReLU) and a configurable final
/// activation (sigmoid for probability outputs).
class Mlp {
 public:
  Mlp() = default;
  /// dims = {in, h1, ..., out}.
  Mlp(const std::vector<int>& dims, Activation final_activation, Rng& rng,
      std::string name = "mlp");

  Var apply(Graph& g, const Var& x) const;
  void collect_params(NamedParams& out) const;

 private:
  std::vector<Linear> layers_;
  Activation final_activation_ = Activation::kNone;
};

/// Gated recurrent unit cell, the paper's Combine function (Eq. 8):
///   z = sigmoid(x Wz + h Uz + bz)
///   r = sigmoid(x Wr + h Ur + br)
///   n = tanh(x Wn + (r*h) Un + bn)
///   h' = (1 - z) * n + z * h
class GruCell {
 public:
  GruCell() = default;
  GruCell(int in_dim, int hidden_dim, Rng& rng, std::string name = "gru");

  Var apply(Graph& g, const Var& x, const Var& h) const;

  /// The activations backward() reads, each rows x hidden_dim: the gates z
  /// and r, the candidate's input r * h, and the candidate n.
  struct Activations {
    float* z = nullptr;
    float* r = nullptr;
    float* rh = nullptr;
    float* n = nullptr;
  };

  /// Inference twin of apply() over raw rows: x (rows x in_dim) and h
  /// (rows x hidden_dim) in, h' (rows x hidden_dim) to `out`. Runs the
  /// apply() formula kernel for kernel, so the result is bit-identical to
  /// the recorded ops; temporaries come from `s`, and the activations go
  /// to `keep` when given.
  void infer(const float* x, const float* h, int rows, float* out, Scratch& s,
             const Activations* keep = nullptr) const;

  /// Backward of apply() over the rows an infer() ran on, given what it
  /// kept: dout (rows x hidden_dim) is h''s gradient. Accumulates into dx
  /// (rows x dx_cols: the first dx_cols columns of x's gradient) and,
  /// when dh is non-null, into dh (rows x hidden_dim), and into the
  /// gradients of the cell's parameters. Runs the taped ops' backward
  /// kernels in reverse record order, so every element accumulates as on
  /// the tape.
  void backward(const float* x, const float* h, int rows, const Activations& a,
                const float* dout, float* dx, int dx_cols, float* dh,
                Scratch& s) const;

  int in_dim() const { return in_dim_; }
  int hidden_dim() const { return hidden_dim_; }
  void collect_params(NamedParams& out) const;

 private:
  int in_dim_ = 0, hidden_dim_ = 0;
  std::string name_;
  Var wz_, wr_, wn_;  // in -> hidden
  Var uz_, ur_, un_;  // hidden -> hidden
  Var bz_, br_, bn_;
};

}  // namespace deepseq::nn
