#include "nn/modules.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "nn/kernels.hpp"

namespace deepseq::nn {

float* Scratch::take(std::size_t n) {
  if (blocks_.empty() || used_ + n > blocks_.back().size()) {
    const std::size_t last = blocks_.empty() ? 0 : blocks_.back().size();
    blocks_.emplace_back(std::max<std::size_t>({n, 2 * last, 4096}));
    used_ = 0;
  }
  float* p = blocks_.back().data() + used_;
  used_ += n;
  return p;
}

float* Scratch::zeros(std::size_t n) {
  float* p = take(n);
  std::fill(p, p + n, 0.0f);
  return p;
}

void Scratch::reset() {
  if (blocks_.size() > 1) {
    std::size_t total = 0;
    for (const auto& b : blocks_) total += b.size();
    blocks_.clear();
    blocks_.emplace_back(total);
  }
  used_ = 0;
}

Linear::Linear(int in_dim, int out_dim, Rng& rng, std::string name)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      name_(std::move(name)),
      w_(make_param(Tensor::xavier(in_dim, out_dim, rng))),
      b_(make_param(Tensor(1, out_dim))) {}

Var Linear::apply(Graph& g, const Var& x) const {
  return g.add_row(g.matmul(x, w_), b_);
}

void Linear::infer(const float* x, int rows, float* out) const {
  const std::size_t n = static_cast<std::size_t>(rows) * out_dim_;
  std::fill(out, out + n, 0.0f);
  kernels::matmul_rows(x, in_dim_, w_->value.data(), out_dim_, out, out_dim_,
                       rows, in_dim_, out_dim_);
  kernels::add_row(out, out, b_->value.data(), static_cast<std::size_t>(rows),
                   static_cast<std::size_t>(out_dim_));
}

void Linear::collect_params(NamedParams& out) const {
  out.emplace_back(name_ + ".w", w_);
  out.emplace_back(name_ + ".b", b_);
}

Mlp::Mlp(const std::vector<int>& dims, Activation final_activation, Rng& rng,
         std::string name)
    : final_activation_(final_activation) {
  if (dims.size() < 2) throw Error("Mlp: need at least in/out dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i)
    layers_.emplace_back(dims[i], dims[i + 1], rng,
                         name + ".l" + std::to_string(i));
}

Var Mlp::apply(Graph& g, const Var& x) const {
  Var h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].apply(g, h);
    if (i + 1 < layers_.size()) h = g.relu(h);
  }
  switch (final_activation_) {
    case Activation::kNone: return h;
    case Activation::kRelu: return g.relu(h);
    case Activation::kSigmoid: return g.sigmoid(h);
    case Activation::kTanh: return g.tanh_(h);
  }
  throw Error("Mlp: unknown activation");
}

void Mlp::collect_params(NamedParams& out) const {
  for (const auto& l : layers_) l.collect_params(out);
}

GruCell::GruCell(int in_dim, int hidden_dim, Rng& rng, std::string name)
    : in_dim_(in_dim),
      hidden_dim_(hidden_dim),
      name_(std::move(name)),
      wz_(make_param(Tensor::xavier(in_dim, hidden_dim, rng))),
      wr_(make_param(Tensor::xavier(in_dim, hidden_dim, rng))),
      wn_(make_param(Tensor::xavier(in_dim, hidden_dim, rng))),
      uz_(make_param(Tensor::xavier(hidden_dim, hidden_dim, rng))),
      ur_(make_param(Tensor::xavier(hidden_dim, hidden_dim, rng))),
      un_(make_param(Tensor::xavier(hidden_dim, hidden_dim, rng))),
      bz_(make_param(Tensor(1, hidden_dim))),
      br_(make_param(Tensor(1, hidden_dim))),
      bn_(make_param(Tensor(1, hidden_dim))) {}

Var GruCell::apply(Graph& g, const Var& x, const Var& h) const {
  if (x->value.cols() != in_dim_)
    throw ShapeError("GruCell: input dim mismatch, expected " +
                     std::to_string(in_dim_) + ", got " +
                     std::to_string(x->value.cols()));
  if (h->value.cols() != hidden_dim_)
    throw ShapeError("GruCell: hidden dim mismatch");
  const Var z = g.sigmoid(g.add_row(g.add(g.matmul(x, wz_), g.matmul(h, uz_)), bz_));
  const Var r = g.sigmoid(g.add_row(g.add(g.matmul(x, wr_), g.matmul(h, ur_)), br_));
  const Var n = g.tanh_(g.add_row(g.add(g.matmul(x, wn_), g.matmul(g.mul(r, h), un_)), bn_));
  return g.add(g.mul(g.one_minus(z), n), g.mul(z, h));
}

void GruCell::infer(const float* x, const float* h, int rows, float* out,
                    Scratch& s) const {
  const std::size_t d = static_cast<std::size_t>(hidden_dim_);
  const std::size_t count = static_cast<std::size_t>(rows) * d;
  // gate = act(x W + h' U + b), h' = h (or r*h for the candidate): the two
  // matmuls accumulate into separate zeroed buffers and are then added,
  // exactly as the recorded add(matmul, matmul) does.
  const auto gate = [&](const float* hh, const Var& w, const Var& u,
                        const Var& b, float* o) {
    float* xu = s.zeros(count);
    std::fill(o, o + count, 0.0f);
    kernels::matmul_rows(x, in_dim_, w->value.data(), hidden_dim_, o,
                         hidden_dim_, rows, in_dim_, hidden_dim_);
    kernels::matmul_rows(hh, hidden_dim_, u->value.data(), hidden_dim_, xu,
                         hidden_dim_, rows, hidden_dim_, hidden_dim_);
    kernels::add(o, o, xu, count);
    kernels::add_row(o, o, b->value.data(), static_cast<std::size_t>(rows), d);
  };
  float* z = s.take(count);
  float* r = s.take(count);
  float* n = s.take(count);
  gate(h, wz_, uz_, bz_, z);
  kernels::sigmoid(z, z, count);
  gate(h, wr_, ur_, br_, r);
  kernels::sigmoid(r, r, count);
  kernels::mul(r, r, h, count);  // r * h feeds the candidate's U matmul
  gate(r, wn_, un_, bn_, n);
  kernels::tanh_(n, n, count);
  // h' = (1 - z) * n + z * h
  float* zh = s.take(count);
  kernels::mul(zh, z, h, count);
  kernels::one_minus(z, z, count);
  kernels::mul(n, z, n, count);
  kernels::add(out, n, zh, count);
}

void GruCell::collect_params(NamedParams& out) const {
  out.emplace_back(name_ + ".wz", wz_);
  out.emplace_back(name_ + ".wr", wr_);
  out.emplace_back(name_ + ".wn", wn_);
  out.emplace_back(name_ + ".uz", uz_);
  out.emplace_back(name_ + ".ur", ur_);
  out.emplace_back(name_ + ".un", un_);
  out.emplace_back(name_ + ".bz", bz_);
  out.emplace_back(name_ + ".br", br_);
  out.emplace_back(name_ + ".bn", bn_);
}

}  // namespace deepseq::nn
