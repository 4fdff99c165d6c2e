// Bit-identity pins of the SIMD chain kernels (src/nn/kernels.*): every
// vectorized routine must produce byte-identical output to the scalar
// fallback — the executor's original loops — on every size, including the
// non-multiple-of-8 tails, special values (negative zero, infinities, NaN
// for relu), and the matmul zero-skip. The suite compares the two dispatch
// paths directly via the DEEPSEQ_NN_SIMD gate; on hosts without AVX2 both
// paths are scalar and the pins hold trivially.

#include <gtest/gtest.h>

#include <cmath>
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
      matmul_rows(a.data(), s.k, b.data(), s.n, out.data(), s.n, 0, s.m, s.k,
                  s.n);
      return out;
    };
    const auto vec = run(true), scl = run(false);
    EXPECT_TRUE(bytes_equal(vec, scl))
        << "matmul diverges at m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(Kernels, MatmulRowRangeMatchesWhole) {
  SimdGuard guard;
  set_simd(true);
  const int m = 6, k = 10, n = 35;
  const auto a = pattern(static_cast<std::size_t>(m) * k, 30);
  const auto b = pattern(static_cast<std::size_t>(k) * n, 31);
  std::vector<float> whole(static_cast<std::size_t>(m) * n, 0.0f);
  matmul_rows(a.data(), k, b.data(), n, whole.data(), n, 0, m, k, n);
  // Row-split execution (the planner's aligned-chain slices) must compose
  // to the same bytes.
  std::vector<float> split(static_cast<std::size_t>(m) * n, 0.0f);
  matmul_rows(a.data(), k, b.data(), n, split.data(), n, 0, 2, k, n);
  matmul_rows(a.data(), k, b.data(), n, split.data(), n, 2, 5, k, n);
  matmul_rows(a.data(), k, b.data(), n, split.data(), n, 5, m, k, n);
  EXPECT_TRUE(bytes_equal(whole, split));
}

TEST(Kernels, RowFormulasSlicedMatchWholeOnBothPaths) {
  // The executor runs add_row / mul_col on row slices and segment_sum on
  // column slices; the fused inference pass calls them on whole levels.
  // Both must produce the same bytes, SIMD or scalar.
  constexpr std::size_t kRows = 9, kSegs = 4;
  const std::vector<int> segment{2, 0, 3, 2, 1, 0, 0, 3, 2};
  expect_simd_scalar_identical("row formulas", [&](std::size_t cols) {
    const auto a = pattern(kRows * cols, 40), row = pattern(cols, 41);
    const auto col = pattern(kRows, 42);
    std::vector<float> whole(kRows * cols), split(kRows * cols);
    std::vector<float> out;
    add_row(whole.data(), a.data(), row.data(), kRows, cols);
    add_row(split.data(), a.data(), row.data(), 4, cols);
    add_row(split.data() + 4 * cols, a.data() + 4 * cols, row.data(), kRows - 4, cols);
    EXPECT_TRUE(bytes_equal(whole, split)) << "add_row slices, cols=" << cols;
    out.insert(out.end(), whole.begin(), whole.end());

    mul_col(whole.data(), a.data(), col.data(), kRows, cols);
    mul_col(split.data(), a.data(), col.data(), 5, cols);
    mul_col(split.data() + 5 * cols, a.data() + 5 * cols, col.data() + 5, kRows - 5, cols);
    EXPECT_TRUE(bytes_equal(whole, split)) << "mul_col slices, cols=" << cols;
    out.insert(out.end(), whole.begin(), whole.end());

    std::vector<float> sum_whole(kSegs * cols, 0.0f), sum_split(kSegs * cols, 0.0f);
    segment_sum(sum_whole.data(), a.data(), segment.data(), kRows, cols, 0, cols);
    segment_sum(sum_split.data(), a.data(), segment.data(), kRows, cols, 0, cols / 2);
    segment_sum(sum_split.data(), a.data(), segment.data(), kRows, cols, cols / 2, cols);
    EXPECT_TRUE(bytes_equal(sum_whole, sum_split)) << "segment_sum slices, cols=" << cols;
    out.insert(out.end(), sum_whole.begin(), sum_whole.end());
    return out;
  });
}

}  // namespace
}  // namespace deepseq::nn::kernels
