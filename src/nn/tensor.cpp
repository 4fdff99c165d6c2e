#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "nn/kernels.hpp"

namespace deepseq::nn {

std::size_t Tensor::checked_size(int rows, int cols) {
  if (rows < 0 || cols < 0) throw ShapeError("Tensor: negative dimension");
  return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
}

Tensor Tensor::full(int rows, int cols, float value) {
  Tensor t(rows, cols);
  t.fill(value);
  return t;
}

Tensor Tensor::scalar(float value) { return full(1, 1, value); }

Tensor Tensor::from_rows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Tensor();
  Tensor t(static_cast<int>(rows.size()), static_cast<int>(rows[0].size()));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != rows[0].size())
      throw ShapeError("Tensor::from_rows: ragged rows");
    std::copy(rows[r].begin(), rows[r].end(), t.row(static_cast<int>(r)));
  }
  return t;
}

Tensor Tensor::xavier(int rows, int cols, Rng& rng) {
  Tensor t(rows, cols);
  const double a = std::sqrt(6.0 / (rows + cols));
  for (std::size_t i = 0; i < t.size(); ++i)
    t.data()[i] = static_cast<float>(rng.uniform(-a, a));
  return t;
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

float Tensor::sum() const {
  double s = 0.0;
  for (const float v : data_) s += v;
  return static_cast<float>(s);
}

float Tensor::mean() const {
  return data_.empty() ? 0.0f : sum() / static_cast<float>(data_.size());
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (const float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

std::string Tensor::shape_string() const {
  return "[" + std::to_string(rows_) + "x" + std::to_string(cols_) + "]";
}

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.same_shape(b))
    throw ShapeError(std::string(op) + ": shape mismatch " + a.shape_string() +
                     " vs " + b.shape_string());
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.rows())
    throw ShapeError("matmul: inner dimension mismatch " + a.shape_string() +
                     " * " + b.shape_string());
  Tensor out(a.rows(), b.cols());
  kernels::matmul_rows(a.data(), a.cols(), b.data(), b.cols(), out.data(), out.cols(),
                       a.rows(), a.cols(), b.cols());
  return out;
}

void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  if (a.rows() != b.rows() || out.rows() != a.cols() || out.cols() != b.cols())
    throw ShapeError("matmul_tn_acc: shape mismatch");
  kernels::matmul_tn_acc(a.data(), a.cols(), b.data(), b.cols(), out.data(), out.cols(),
                         a.rows(), a.cols(), b.cols());
}

void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& out) {
  if (a.cols() != b.cols() || out.rows() != a.rows() || out.cols() != b.rows())
    throw ShapeError("matmul_nt_acc: shape mismatch");
  kernels::matmul_nt_acc(a.data(), a.cols(), b.data(), b.cols(), out.data(), out.cols(),
                         a.rows(), a.cols(), b.rows());
}

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) out.data()[i] = a.data()[i] + b.data()[i];
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) out.data()[i] = a.data()[i] - b.data()[i];
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) out.data()[i] = a.data()[i] * b.data()[i];
  return out;
}

Tensor add_row(const Tensor& a, const Tensor& row) {
  if (row.rows() != 1 || row.cols() != a.cols())
    throw ShapeError("add_row: need 1x" + std::to_string(a.cols()) +
                     " row vector, got " + row.shape_string());
  Tensor out(a.rows(), a.cols());
  for (int r = 0; r < a.rows(); ++r)
    for (int c = 0; c < a.cols(); ++c) out.at(r, c) = a.at(r, c) + row.at(0, c);
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) out.data()[i] = a.data()[i] * s;
  return out;
}

void add_in_place(Tensor& into, const Tensor& what) {
  check_same_shape(into, what, "add_in_place");
  for (std::size_t i = 0; i < into.size(); ++i) into.data()[i] += what.data()[i];
}

void scale_in_place(Tensor& t, float s) {
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] *= s;
}

Tensor sigmoid(const Tensor& a) {
  Tensor out(a.rows(), a.cols());
  kernels::sigmoid(out.data(), a.data(), a.size());
  return out;
}

Tensor tanh_t(const Tensor& a) {
  Tensor out(a.rows(), a.cols());
  kernels::tanh_(out.data(), a.data(), a.size());
  return out;
}

Tensor relu(const Tensor& a) {
  Tensor out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i)
    out.data()[i] = a.data()[i] > 0.0f ? a.data()[i] : 0.0f;
  return out;
}

}  // namespace deepseq::nn
