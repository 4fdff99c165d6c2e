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

void Linear::backward(const float* x, int rows, const float* dy,
                      float* dx) const {
  if (float* db = b_->grad_target())
    kernels::bias_backward(db, dy, static_cast<std::size_t>(rows),
                           static_cast<std::size_t>(out_dim_));
  if (dx != nullptr)
    kernels::matmul_nt_acc(dy, out_dim_, w_->value.data(), out_dim_, dx,
                           in_dim_, rows, out_dim_, in_dim_);
  if (float* dw = w_->grad_target())
    kernels::matmul_tn_acc(x, in_dim_, dy, out_dim_, dw, out_dim_, rows,
                           in_dim_, out_dim_);
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
                    Scratch& s, const Activations* keep) const {
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
  Activations a;
  if (keep != nullptr) {
    a = *keep;
  } else {  // nothing kept: r * h overwrites r, and (1 - z) * n overwrites z
    a.z = s.take(count);
    a.r = a.rh = s.take(count);
    a.n = s.take(count);
  }
  gate(h, wz_, uz_, bz_, a.z);
  kernels::sigmoid(a.z, a.z, count);
  gate(h, wr_, ur_, br_, a.r);
  kernels::sigmoid(a.r, a.r, count);
  kernels::mul(a.rh, a.r, h, count);  // r * h feeds the candidate's U matmul
  gate(a.rh, wn_, un_, bn_, a.n);
  kernels::tanh_(a.n, a.n, count);
  // h' = (1 - z) * n + z * h
  float* zh = s.take(count);
  float* zn = keep != nullptr ? s.take(count) : a.z;
  kernels::mul(zh, a.z, h, count);
  kernels::one_minus(zn, a.z, count);
  kernels::mul(zn, zn, a.n, count);
  kernels::add(out, zn, zh, count);
}

// The taped apply() records, gate by gate, matmul(x, W), matmul(h', U),
// add, add_row(b) and the activation, then one_minus(z), the two products
// and their add; backward() runs their backward kernels in the reverse of
// that order. Every gradient buffer starts at +0.0 and only accumulates, so
// it never holds -0.0: the pass-through of add and add_row (0 + g) is g
// itself, and one buffer serves every operand it reaches.
void GruCell::backward(const float* x, const float* h, int rows,
                       const Activations& a, const float* dout, float* dx,
                       int dx_cols, float* dh, Scratch& s) const {
  const std::size_t d = static_cast<std::size_t>(hidden_dim_);
  const std::size_t count = static_cast<std::size_t>(rows) * d;
  // One gate's add_row, add and two matmuls, given the gradient `dpre` of
  // its pre-activation: the bias, then U (dh' into `dhh` when non-null),
  // then W (dx).
  const auto gate = [&](const float* hh, float* dhh, const Var& w,
                        const Var& u, const Var& b, const float* dpre) {
    if (float* db = b->grad_target())
      kernels::bias_backward(db, dpre, static_cast<std::size_t>(rows), d);
    if (dhh != nullptr)
      kernels::matmul_nt_acc(dpre, hidden_dim_, u->value.data(), hidden_dim_,
                             dhh, hidden_dim_, rows, hidden_dim_, hidden_dim_);
    if (float* du = u->grad_target())
      kernels::matmul_tn_acc(hh, hidden_dim_, dpre, hidden_dim_, du,
                             hidden_dim_, rows, hidden_dim_, hidden_dim_);
    kernels::matmul_nt_acc(dpre, hidden_dim_, w->value.data(), hidden_dim_, dx,
                           dx_cols, rows, hidden_dim_, dx_cols);
    if (float* dw = w->grad_target())
      kernels::matmul_tn_acc(x, in_dim_, dpre, hidden_dim_, dw, hidden_dim_,
                             rows, in_dim_, hidden_dim_);
  };
  // h' = (1 - z) * n + z * h
  float* dz = s.zeros(count);
  kernels::acc_mul(dz, dout, h, count);
  if (dh != nullptr) kernels::acc_mul(dh, dout, a.z, count);
  float* omz = s.take(count);
  kernels::one_minus(omz, a.z, count);
  float* domz = s.zeros(count);
  kernels::acc_mul(domz, dout, a.n, count);
  float* dn = s.zeros(count);
  kernels::acc_mul(dn, dout, omz, count);
  kernels::acc_sub(dz, domz, count);
  // n = tanh(x Wn + (r * h) Un + bn); r * h takes its gradient from Un.
  float* dpre = s.zeros(count);
  kernels::tanh_backward(dpre, dn, a.n, count);
  float* drh = s.zeros(count);
  gate(a.rh, drh, wn_, un_, bn_, dpre);
  float* dr = s.zeros(count);
  kernels::acc_mul(dr, drh, h, count);
  if (dh != nullptr) kernels::acc_mul(dh, drh, a.r, count);
  // r = sigmoid(x Wr + h Ur + br), z = sigmoid(x Wz + h Uz + bz)
  dpre = s.zeros(count);
  kernels::sigmoid_backward(dpre, dr, a.r, count);
  gate(h, dh, wr_, ur_, br_, dpre);
  dpre = s.zeros(count);
  kernels::sigmoid_backward(dpre, dz, a.z, count);
  gate(h, dh, wz_, uz_, bz_, dpre);
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
