// Bit-identity pins of the SIMD kernels (src/nn/kernels.*): every
// vectorized routine must produce byte-identical output to the scalar
// fallback — the executor's original loops and the activation polynomials —
// on every size, including the non-multiple-of-8 tails, special values
// (negative zero, infinities, NaN), and the matmul zero-skip. The suite
// compares the two dispatch paths directly via the DEEPSEQ_NN_SIMD gate; on
// hosts without AVX2 both paths are scalar and the pins hold trivially. The
// activations are also held to an accuracy bound against double precision.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/kernels.hpp"

namespace deepseq::nn::kernels {
namespace {

/// Restore the ambient DEEPSEQ_NN_SIMD (and the process-global gate) on
/// test exit, so this binary composes with the CI matrix's simd legs.
struct SimdGuard {
  SimdGuard()
      : had(std::getenv("DEEPSEQ_NN_SIMD") != nullptr),
        value(had ? std::getenv("DEEPSEQ_NN_SIMD") : "") {}
  ~SimdGuard() {
    if (had) {
      ::setenv("DEEPSEQ_NN_SIMD", value.c_str(), 1);
    } else {
      ::unsetenv("DEEPSEQ_NN_SIMD");
    }
    refresh_from_env();
  }
  bool had;
  std::string value;
};

void set_simd(bool on) {
  ::setenv("DEEPSEQ_NN_SIMD", on ? "1" : "0", 1);
  refresh_from_env();
}

bool bytes_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Deterministic "awkward" values: mixed signs and magnitudes whose sums
/// and products are rounding-sensitive, so any reassociation or FMA
/// contraction in the vector path would flip low bits.
std::vector<float> pattern(std::size_t n, std::uint32_t seed) {
  std::vector<float> v(n);
  std::uint32_t s = seed * 2654435761u + 12345u;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 1664525u + 1013904223u;
    const float mag = static_cast<float>(s >> 8) / 16777216.0f;  // [0, 1)
    const float scaled = (mag - 0.5f) * ((i % 7 == 0) ? 1e-6f : 3.7e3f);
    v[i] = (i % 11 == 3) ? -0.0f : scaled;
  }
  return v;
}

// The tail sizes that matter: below one lane, exactly one lane, lane +- 1,
// a j-block (32) +- 1, and a couple of larger odd sizes.
const std::size_t kSizes[] = {1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 67};

template <typename Run>
void expect_simd_scalar_identical(const char* what, Run run) {
  SimdGuard guard;
  for (std::size_t n : kSizes) {
    set_simd(true);
    const std::vector<float> vec = run(n);
    set_simd(false);
    ASSERT_FALSE(simd_active());
    const std::vector<float> scl = run(n);
    EXPECT_TRUE(bytes_equal(vec, scl)) << what << " diverges at n=" << n;
  }
}

TEST(Kernels, EnvGateForcesScalar) {
  SimdGuard guard;
  set_simd(false);
  EXPECT_FALSE(simd_active());
  EXPECT_EQ(lanes(), 1);
  set_simd(true);
  // With the gate open, lanes is 8 exactly when the host has AVX2.
  EXPECT_EQ(lanes(), simd_active() ? 8 : 1);
}

TEST(Kernels, ElementwiseParity) {
  expect_simd_scalar_identical("add", [](std::size_t n) {
    const auto x = pattern(n, 1), y = pattern(n, 2);
    std::vector<float> o(n);
    add(o.data(), x.data(), y.data(), n);
    return o;
  });
  expect_simd_scalar_identical("sub", [](std::size_t n) {
    const auto x = pattern(n, 3), y = pattern(n, 4);
    std::vector<float> o(n);
    sub(o.data(), x.data(), y.data(), n);
    return o;
  });
  expect_simd_scalar_identical("mul", [](std::size_t n) {
    const auto x = pattern(n, 5), y = pattern(n, 6);
    std::vector<float> o(n);
    mul(o.data(), x.data(), y.data(), n);
    return o;
  });
  expect_simd_scalar_identical("scale", [](std::size_t n) {
    const auto x = pattern(n, 7);
    std::vector<float> o(n);
    scale(o.data(), x.data(), 1.0f / 3.0f, n);
    return o;
  });
  expect_simd_scalar_identical("one_minus", [](std::size_t n) {
    const auto x = pattern(n, 8);
    std::vector<float> o(n);
    one_minus(o.data(), x.data(), n);
    return o;
  });
}

TEST(Kernels, ReluParityIncludingSpecials) {
  expect_simd_scalar_identical("relu", [](std::size_t n) {
    auto x = pattern(n, 9);
    // The scalar rule is x > 0 ? x : 0 — pin its NaN / -0.0 / inf behavior.
    if (n > 0) x[0] = std::numeric_limits<float>::quiet_NaN();
    if (n > 1) x[1] = -0.0f;
    if (n > 2) x[2] = std::numeric_limits<float>::infinity();
    if (n > 3) x[3] = -std::numeric_limits<float>::infinity();
    std::vector<float> o(n);
    relu(o.data(), x.data(), n);
    return o;
  });
}

/// Inputs where the activation polynomials change regime: NaNs (quiet with
/// a payload, signaling, negative), infinities, signed zeros, subnormals,
/// the exp clamp (88) and the classic Cephes expf clamp (88.38), where
/// exp(-|x|) leaves the normal range (87.34), the tanh branch edge (0.625)
/// and where tanh rounds to 1 (9).
std::vector<float> activation_specials() {
  std::vector<float> v{std::bit_cast<float>(0x7FC12345u), std::bit_cast<float>(0x7F812345u),
                       std::bit_cast<float>(0xFFC54321u)};
  const float magnitudes[] = {std::numeric_limits<float>::infinity(),
                              0.0f,
                              std::numeric_limits<float>::denorm_min(),
                              1e-40f,
                              std::numeric_limits<float>::min(),
                              88.0f,
                              88.38f,
                              87.34f,
                              0.625f,
                              std::nextafter(0.625f, 0.0f),
                              9.0f};
  for (const float m : magnitudes) {
    v.push_back(m);
    v.push_back(-m);
  }
  return v;
}

/// pattern(n) with every other element replaced by a special, rotated by n
/// so each special lands in both vector bodies and scalar tails.
std::vector<float> activation_inputs(std::size_t n, std::uint32_t seed) {
  const std::vector<float> specials = activation_specials();
  std::vector<float> x = pattern(n, seed);
  for (std::size_t i = 0; i < n; i += 2) x[i] = specials[(i / 2 + n) % specials.size()];
  return x;
}

TEST(Kernels, ActivationParityIncludingSpecials) {
  expect_simd_scalar_identical("sigmoid", [](std::size_t n) {
    const auto x = activation_inputs(n, 50);
    std::vector<float> o(n);
    sigmoid(o.data(), x.data(), n);
    return o;
  });
  expect_simd_scalar_identical("tanh", [](std::size_t n) {
    const auto x = activation_inputs(n, 51);
    std::vector<float> o(n);
    tanh_(o.data(), x.data(), n);
    return o;
  });
  // Every special in one call, through the vector body and the tail.
  SimdGuard guard;
  const std::vector<float> x = activation_specials();
  for (const bool simd : {true, false}) {
    set_simd(simd);
    std::vector<float> o(x.size());
    sigmoid(o.data(), x.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(std::isnan(o[i]), std::isnan(x[i])) << "sigmoid(" << x[i] << ")";
    tanh_(o.data(), x.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(std::isnan(o[i]), std::isnan(x[i])) << "tanh(" << x[i] << ")";
  }
}

/// Error of `got` in units of the float ulp at `ref` (a normal float value).
double ulp_error(float got, double ref) {
  int exp = 0;
  std::frexp(ref, &exp);  // |ref| in [2^(exp-1), 2^exp)
  return std::fabs(static_cast<double>(got) - ref) / std::ldexp(1.0, exp - 24);
}

TEST(Kernels, ActivationAccuracyOverStridedFloatSweep) {
  // Every 1009th of the 2^32 float bit patterns (~4.3M values): all signs,
  // exponents and NaN encodings, through the active dispatch path. Scalar
  // and SIMD must agree on all of them before one path's accuracy counts.
  SimdGuard guard;
  std::vector<float> x;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 1009)
    x.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(b)));
  std::vector<float> sig(x.size()), th(x.size()), sig_scalar(x.size()), th_scalar(x.size());
  set_simd(true);
  sigmoid(sig.data(), x.data(), x.size());
  tanh_(th.data(), x.data(), x.size());
  set_simd(false);
  sigmoid(sig_scalar.data(), x.data(), x.size());
  tanh_(th_scalar.data(), x.data(), x.size());
  EXPECT_TRUE(bytes_equal(sig, sig_scalar)) << "sigmoid SIMD vs scalar over the sweep";
  EXPECT_TRUE(bytes_equal(th, th_scalar)) << "tanh SIMD vs scalar over the sweep";

  const double kMaxUlp = 3.0;
  const double lo = std::numeric_limits<float>::min();
  const double hi = std::numeric_limits<float>::max();
  double worst_sig = 0.0, worst_tanh = 0.0;
  float worst_sig_x = 0.0f, worst_tanh_x = 0.0f;
  std::size_t nan_mismatch = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xd = x[i];
    if (std::isnan(x[i])) {
      nan_mismatch += !std::isnan(sig[i]) + !std::isnan(th[i]);
      continue;
    }
    const double sref = 1.0 / (1.0 + std::exp(-xd));
    if (sref >= lo && sref <= hi) {
      const double e = ulp_error(sig[i], sref);
      if (e > worst_sig) {
        worst_sig = e;
        worst_sig_x = x[i];
      }
    }
    const double tref = std::tanh(xd);
    if (std::fabs(tref) >= lo && std::fabs(tref) <= hi) {
      const double e = ulp_error(th[i], tref);
      if (e > worst_tanh) {
        worst_tanh = e;
        worst_tanh_x = x[i];
      }
    }
  }
  EXPECT_EQ(nan_mismatch, 0u) << "NaN in must give NaN out";
  EXPECT_LE(worst_sig, kMaxUlp) << "sigmoid worst at x=" << worst_sig_x;
  EXPECT_LE(worst_tanh, kMaxUlp) << "tanh worst at x=" << worst_tanh_x;
  RecordProperty("sigmoid_max_ulp", std::to_string(worst_sig));
  RecordProperty("tanh_max_ulp", std::to_string(worst_tanh));

  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> edges{inf, -inf, -0.0f};
  std::vector<float> s(edges.size()), t(edges.size());
  for (const bool simd : {true, false}) {
    set_simd(simd);
    sigmoid(s.data(), edges.data(), edges.size());
    tanh_(t.data(), edges.data(), edges.size());
    EXPECT_EQ(s[0], 1.0f);
    EXPECT_EQ(s[1], 0.0f);
    EXPECT_EQ(t[0], 1.0f);
    EXPECT_EQ(t[1], -1.0f);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(t[2]), std::bit_cast<std::uint32_t>(-0.0f))
        << "tanh(-0) must be -0";
  }
}

TEST(Kernels, BackwardAccumulationParity) {
  expect_simd_scalar_identical("acc_add", [](std::size_t n) {
    auto dst = pattern(n, 10);
    const auto grd = pattern(n, 11);
    acc_add(dst.data(), grd.data(), n);
    return dst;
  });
  expect_simd_scalar_identical("acc_sub", [](std::size_t n) {
    auto dst = pattern(n, 12);
    const auto grd = pattern(n, 13);
    acc_sub(dst.data(), grd.data(), n);
    return dst;
  });
  expect_simd_scalar_identical("acc_mul", [](std::size_t n) {
    auto dst = pattern(n, 14);
    const auto grd = pattern(n, 15), other = pattern(n, 16);
    acc_mul(dst.data(), grd.data(), other.data(), n);
    return dst;
  });
  expect_simd_scalar_identical("acc_scale", [](std::size_t n) {
    auto dst = pattern(n, 17);
    const auto grd = pattern(n, 18);
    acc_scale(dst.data(), grd.data(), -0.7331f, n);
    return dst;
  });
}

TEST(Kernels, MatmulParityWithZeroSkip) {
  SimdGuard guard;
  // Shapes straddling the 32-wide j-block, the 8-wide lane and the scalar
  // tail, with k values that exercise the ascending-p accumulation.
  struct Shape { int m, k, n; };
  const Shape shapes[] = {{1, 1, 1},  {2, 3, 5},   {4, 8, 32},  {3, 7, 33},
                          {5, 16, 40}, {2, 5, 67}, {6, 12, 31}, {4, 9, 9}};
  for (const Shape& s : shapes) {
    auto a = pattern(static_cast<std::size_t>(s.m) * s.k, 20);
    const auto b = pattern(static_cast<std::size_t>(s.k) * s.n, 21);
    // Sprinkle exact zeros into a: the scalar kernel skips them entirely
    // (their row of b is never touched), and the vector path must match
    // that bit-for-bit even when b holds infinities at skipped rows.
    for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
    auto run = [&](bool simd) {
      set_simd(simd);
      std::vector<float> out(static_cast<std::size_t>(s.m) * s.n, 0.0f);
      matmul_rows(a.data(), s.k, b.data(), s.n, out.data(), s.n, s.m, s.k, s.n);
      return out;
    };
    const auto vec = run(true), scl = run(false);
    EXPECT_TRUE(bytes_equal(vec, scl))
        << "matmul diverges at m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
  // n == 1 runs eight rows per lane block with a scalar row tail; k covers
  // the 8-wide column blocks and their masked remainder. Two columns of A
  // are all zeros (alternating signs) over rows of B that hold infinities,
  // so every product there must be skipped; A also holds a NaN, a -0.0 and
  // an all-zero row. out starts at -0.0, so a skip that adds +0.0 instead
  // of leaving the accumulator alone flips that row's sign bit. B and out
  // are read and written at a stride, the gaps filled with NaN.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const int m : {8, 9, 17, 33}) {
    for (const int k : {7, 8, 9, 32, 33}) {
      for (const int stride : {1, 3}) {
        auto a = pattern(static_cast<std::size_t>(m) * k, 22);
        std::vector<float> b(static_cast<std::size_t>(k) * stride, nan);
        const auto bvals = pattern(static_cast<std::size_t>(k), 23);
        for (int p = 0; p < k; ++p) b[static_cast<std::size_t>(p) * stride] = bvals[p];
        for (std::size_t i = 0; i < a.size(); i += 5) a[i] = 0.0f;
        for (const int p : {2, k - 1}) {
          b[static_cast<std::size_t>(p) * stride] = p % 2 ? -inf : inf;
          for (int i = 0; i < m; ++i) a[static_cast<std::size_t>(i) * k + p] = i % 2 ? -0.0f : 0.0f;
        }
        a[static_cast<std::size_t>(3) * k + 1] = nan;
        a[static_cast<std::size_t>(5) * k + 3] = -0.0f;
        std::fill_n(a.begin() + 6 * k, k, 0.0f);
        auto run = [&](bool simd) {
          set_simd(simd);
          std::vector<float> out(static_cast<std::size_t>(m) * stride, nan);
          for (int i = 0; i < m; ++i) out[static_cast<std::size_t>(i) * stride] = -0.0f;
          matmul_rows(a.data(), k, b.data(), stride, out.data(), stride, m, k, 1);
          return out;
        };
        const auto vec = run(true), scl = run(false);
        EXPECT_TRUE(bytes_equal(vec, scl))
            << "matvec diverges at m=" << m << " k=" << k << " stride=" << stride;
        EXPECT_TRUE(std::isnan(vec[3 * stride])) << "a NaN in row 3 must reach its output";
        EXPECT_FALSE(std::isnan(vec[0])) << "skipped infinities must not reach row 0";
        EXPECT_TRUE(std::signbit(vec[6 * stride])) << "an all-zero row keeps out's -0.0";
      }
    }
  }
}

TEST(Kernels, RowFormulasParity) {
  constexpr std::size_t kRows = 9, kSegs = 4;
  const std::vector<int> segment{2, 0, 3, 2, 1, 0, 0, 3, 2};
  expect_simd_scalar_identical("row formulas", [&](std::size_t cols) {
    const auto a = pattern(kRows * cols, 40), row = pattern(cols, 41);
    const auto col = pattern(kRows, 42);
    std::vector<float> out(kRows * cols);
    std::vector<float> all;
    add_row(out.data(), a.data(), row.data(), kRows, cols);
    all.insert(all.end(), out.begin(), out.end());
    mul_col(out.data(), a.data(), col.data(), kRows, cols);
    all.insert(all.end(), out.begin(), out.end());
    std::vector<float> sums(kSegs * cols, 0.0f);
    segment_sum(sums.data(), a.data(), segment.data(), kRows, cols);
    all.insert(all.end(), sums.begin(), sums.end());
    return all;
  });
}

TEST(Kernels, RowBackwardFormulasParity) {
  // The backward loops shared by run_backward and the fused level op; the
  // ones built on acc_add / acc_scale dispatch, the rest are scalar on both
  // paths.
  constexpr std::size_t kRows = 9, kSegs = 4;
  const std::vector<int> segment{2, 0, 3, 2, 1, 0, 0, 3, 2};
  expect_simd_scalar_identical("row backward formulas", [&](std::size_t cols) {
    const auto g = pattern(kRows * cols, 50), y = pattern(kRows * cols, 51);
    const auto col = pattern(kRows, 52), gseg = pattern(kSegs * cols, 53);
    std::vector<float> all;
    const auto run = [&](std::size_t n, auto&& body) {
      auto dst = pattern(n, 54);
      body(dst.data());
      all.insert(all.end(), dst.begin(), dst.end());
    };
    const std::size_t count = kRows * cols;
    run(count, [&](float* d) { sigmoid_backward(d, g.data(), y.data(), count); });
    run(count, [&](float* d) { tanh_backward(d, g.data(), y.data(), count); });
    run(cols, [&](float* d) { bias_backward(d, g.data(), kRows, cols); });
    run(count, [&](float* d) {
      mul_col_backward_values(d, g.data(), col.data(), kRows, cols);
    });
    run(kRows, [&](float* d) {
      mul_col_backward_col(d, g.data(), y.data(), cols, kRows, cols);
    });
    run(count, [&](float* d) {
      segment_sum_backward(d, gseg.data(), segment.data(), kRows, cols);
    });
    run(kRows, [&](float* d) {
      segment_softmax_backward(d, col.data(), y.data(), segment.data(), kRows,
                               static_cast<int>(kSegs));
    });
    return all;
  });
}

// ---- backward matmuls --------------------------------------------------------
//
// matmul_nt_acc (dA = G B^T) and matmul_tn_acc (dB = A^T G) on both paths.
// Shapes straddle the 8-lane and 32-column blocks on every dimension, with
// row strides wider than the rows (the gaps hold NaN, which must never be
// read) and out starting at -0.0, so an accumulator that starts from the
// first product instead of +0.0, or a skipped product that adds +0.0,
// flips a sign bit.

constexpr int kBackM[] = {1, 7, 8, 9, 12, 33, 70};
constexpr int kBackDims[] = {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 67};

/// A rows x cols matrix at row stride cols + pad, the padding NaN.
std::vector<float> strided(const std::vector<float>& dense, int rows, int cols, int pad) {
  const int ld = cols + pad;
  std::vector<float> out(static_cast<std::size_t>(rows) * ld,
                         std::numeric_limits<float>::quiet_NaN());
  for (int r = 0; r < rows; ++r)
    std::copy_n(dense.begin() + static_cast<std::size_t>(r) * cols, cols,
                out.begin() + static_cast<std::size_t>(r) * ld);
  return out;
}

/// The gradient buffer a backward kernel accumulates into: -0.0 in every
/// element, NaN in the stride gaps.
std::vector<float> negative_zero_out(int rows, int cols, int pad) {
  return strided(std::vector<float>(static_cast<std::size_t>(rows) * cols, -0.0f), rows,
                 cols, pad);
}

struct NtCase {
  std::vector<float> g, b;  // g: m x k at ld k + 1; b: n x k at ld k + 3
};

/// dA operands: pattern() values, plus one +inf in B's row 2 and one -inf
/// in its last row, a NaN with a payload in G's row 3 and an all -0.0 row 5
/// of G (its sums are +0.0 + -0.0 + ... = +0.0). Each sum meets at most
/// one infinity, and row 3 multiplies the infinities by nonzero values, so
/// no add ever sees two NaNs (whose payload would depend on operand order).
/// Double sums of pattern() products are almost always exact to float
/// precision in any order, so G's row 1 holds 2^60 in column 0 and -2^60
/// in column k / 2, over equal columns of B. Products summed between the
/// two are rounded onto a 2^19-wide double grid, those after them are not,
/// so reversing p changes the result.
NtCase nt_case(int m, int k, int n, std::uint32_t seed) {
  auto g = pattern(static_cast<std::size_t>(m) * k, seed);
  auto b = pattern(static_cast<std::size_t>(n) * k, seed + 1);
  const float inf = std::numeric_limits<float>::infinity();
  if (m > 1 && k > 2) {
    g[static_cast<std::size_t>(k)] = 0x1p60f;
    g[static_cast<std::size_t>(k) + k / 2] = -0x1p60f;
    for (int j = 0; j < n; ++j)
      b[static_cast<std::size_t>(j) * k + k / 2] = b[static_cast<std::size_t>(j) * k];
  }
  if (n > 2) b[static_cast<std::size_t>(2) * k] = inf;
  if (n > 3) b[static_cast<std::size_t>(n - 1) * k + (k - 1)] = -inf;
  if (m > 3) {
    float* row = g.data() + static_cast<std::size_t>(3) * k;
    row[0] = row[k - 1] = 0.5f;
    row[k / 2] = std::bit_cast<float>(0x7FC0BEEFu);
  }
  if (m > 5) std::fill_n(g.begin() + static_cast<std::size_t>(5) * k, k, -0.0f);
  return {strided(g, m, k, 1), strided(b, n, k, 3)};
}

std::vector<float> run_nt(const NtCase& c, int m, int k, int n) {
  auto out = negative_zero_out(m, n, 2);
  matmul_nt_acc(c.g.data(), k + 1, c.b.data(), k + 3, out.data(), n + 2, m, k, n);
  return out;
}

struct TnCase {
  std::vector<float> a, g;  // a: m x k at ld k + 2; g: m x n at ld n + 1
};

/// dB operands: pattern() values, plus two all-zero columns of A (0 and
/// k - 1, signs alternating) over G's row 2 of alternating infinities, so
/// each of those products must be skipped rather than computed as NaN; a
/// NaN with a payload in A's row 4 (its G row is finite) and an all-zero
/// last row of G.
TnCase tn_case(int m, int k, int n, std::uint32_t seed) {
  auto a = pattern(static_cast<std::size_t>(m) * k, seed);
  auto g = pattern(static_cast<std::size_t>(m) * n, seed + 1);
  const float inf = std::numeric_limits<float>::infinity();
  for (const int i : {0, k - 1})
    for (int p = 0; p < m; ++p) a[static_cast<std::size_t>(p) * k + i] = p % 2 ? -0.0f : 0.0f;
  if (m > 2)
    for (int j = 0; j < n; ++j) g[static_cast<std::size_t>(2) * n + j] = j % 2 ? -inf : inf;
  if (m > 4) {
    if (k > 2) a[static_cast<std::size_t>(4) * k + 1] = std::bit_cast<float>(0x7FC0BEEFu);
    std::fill_n(g.begin() + static_cast<std::size_t>(m - 1) * n, n, 0.0f);
  }
  return {strided(a, m, k, 2), strided(g, m, n, 1)};
}

std::vector<float> run_tn(const TnCase& c, int m, int k, int n) {
  auto out = negative_zero_out(k, n, 2);
  matmul_tn_acc(c.a.data(), k + 2, c.g.data(), n + 1, out.data(), n + 2, m, k, n);
  return out;
}

TEST(Kernels, MatmulNtAccParity) {
  SimdGuard guard;
  for (const int m : kBackM)
    for (const int k : kBackDims)
      for (const int n : kBackDims) {
        const NtCase c = nt_case(m, k, n, 60u + static_cast<std::uint32_t>(k * 97 + n));
        set_simd(true);
        const auto vec = run_nt(c, m, k, n);
        set_simd(false);
        const auto scl = run_nt(c, m, k, n);
        ASSERT_TRUE(bytes_equal(vec, scl)) << "dA diverges at m=" << m << " k=" << k
                                           << " n=" << n;
        // G's NaN reaches every column of its row.
        for (int j = 0; m > 3 && j < n; ++j)
          ASSERT_TRUE(std::isnan(vec[static_cast<std::size_t>(3) * (n + 2) + j]));
      }
  // k == 0: every sum is its +0.0 start, so out's -0.0 becomes +0.0.
  const std::vector<float> none(1, 0.0f);
  for (const bool simd : {true, false}) {
    set_simd(simd);
    std::vector<float> out(3 * 40, -0.0f);
    matmul_nt_acc(none.data(), 0, none.data(), 0, out.data(), 40, 3, 0, 40);
    for (const float v : out) ASSERT_FALSE(std::signbit(v));
  }
}

TEST(Kernels, MatmulTnAccParity) {
  SimdGuard guard;
  for (const int m : kBackM)
    for (const int k : kBackDims)
      for (const int n : kBackDims) {
        const TnCase c = tn_case(m, k, n, 70u + static_cast<std::uint32_t>(k * 97 + n));
        set_simd(true);
        const auto vec = run_tn(c, m, k, n);
        set_simd(false);
        const auto scl = run_tn(c, m, k, n);
        ASSERT_TRUE(bytes_equal(vec, scl)) << "dB diverges at m=" << m << " k=" << k
                                           << " n=" << n;
        // Column 0 of A is all zeros: out row 0 keeps its -0.0 exactly.
        // A's NaN reaches every column of out row 1.
        for (int j = 0; j < n; ++j) {
          ASSERT_TRUE(std::signbit(vec[static_cast<std::size_t>(j)]));
          if (m > 4 && k > 2) {
            ASSERT_TRUE(std::isnan(vec[static_cast<std::size_t>(n + 2) + j]));
          }
        }
      }
}

TEST(Kernels, BackwardMatmulScalarBodiesMatchNaiveReference) {
  // The scalar bodies are the reference the SIMD paths are held to; check
  // them once against the formulas written out here.
  SimdGuard guard;
  set_simd(false);
  const int m = 9, k = 17, n = 33;
  const NtCase nt = nt_case(m, k, n, 80);
  std::vector<float> expect = negative_zero_out(m, n, 2);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double sum = 0.0;
      for (int p = 0; p < k; ++p) {
        const float prod = nt.g[static_cast<std::size_t>(i) * (k + 1) + p] *
                           nt.b[static_cast<std::size_t>(j) * (k + 3) + p];
        sum += static_cast<double>(prod);
      }
      expect[static_cast<std::size_t>(i) * (n + 2) + j] += static_cast<float>(sum);
    }
  EXPECT_TRUE(bytes_equal(run_nt(nt, m, k, n), expect)) << "dA scalar body";

  const TnCase tn = tn_case(m, k, n, 81);
  expect = negative_zero_out(k, n, 2);
  for (int i = 0; i < k; ++i)
    for (int j = 0; j < n; ++j) {
      float& o = expect[static_cast<std::size_t>(i) * (n + 2) + j];
      for (int p = 0; p < m; ++p) {
        const float av = tn.a[static_cast<std::size_t>(p) * (k + 2) + i];
        if (av == 0.0f) continue;
        // volatile keeps the product its own rounding: tests are not built
        // with -ffp-contract=off, and an FMA here would round once.
        const volatile float prod = tn.g[static_cast<std::size_t>(p) * (n + 1) + j] * av;
        o += prod;
      }
    }
  EXPECT_TRUE(bytes_equal(run_tn(tn, m, k, n), expect)) << "dB scalar body";
}

}  // namespace
}  // namespace deepseq::nn::kernels
