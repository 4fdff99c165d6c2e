#include "nn/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "common/env.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace deepseq::nn::kernels {

namespace {

bool cpu_has_avx2() {
#if defined(__x86_64__)
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

// Process-global gate, refreshed from the env once per flush by the
// executor. Both paths are bit-identical, so a racing refresh mid-flush
// could at worst mix paths across kernels — results are unchanged either
// way; relaxed ordering is sufficient.
std::atomic<bool> g_simd_enabled{true};

#if defined(__x86_64__)

// AVX2 bodies. target("avx2") deliberately excludes "fma": the scalar
// baseline is built without -mfma, so every multiply-add must stay a
// separate vmulps + vaddps to round identically.

__attribute__((target("avx2"))) void add_avx2(float* o, const float* x, const float* y,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) o[i] = x[i] + y[i];
}

__attribute__((target("avx2"))) void sub_avx2(float* o, const float* x, const float* y,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_sub_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) o[i] = x[i] - y[i];
}

__attribute__((target("avx2"))) void mul_avx2(float* o, const float* x, const float* y,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) o[i] = x[i] * y[i];
}

__attribute__((target("avx2"))) void scale_avx2(float* o, const float* x, float s,
                                                std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (; i < n; ++i) o[i] = x[i] * s;
}

// max_ps(x, 0) matches the scalar `x > 0 ? x : 0`: for NaN inputs maxps
// returns the second operand (0.0f), same as the comparison being false,
// and -0.0f > 0 is false so both yield +0.0f.
__attribute__((target("avx2"))) void relu_avx2(float* o, const float* x, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

__attribute__((target("avx2"))) void one_minus_avx2(float* o, const float* x, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_sub_ps(one, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) o[i] = 1.0f - x[i];
}

__attribute__((target("avx2"))) void acc_add_avx2(float* dst, const float* g, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) dst[i] += g[i];
}

__attribute__((target("avx2"))) void acc_sub_avx2(float* dst, const float* g, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_sub_ps(_mm256_loadu_ps(dst + i), _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) dst[i] -= g[i];
}

__attribute__((target("avx2"))) void acc_mul_avx2(float* dst, const float* g, const float* o,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(g + i), _mm256_loadu_ps(o + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < n; ++i) dst[i] += g[i] * o[i];
}

__attribute__((target("avx2"))) void acc_scale_avx2(float* dst, const float* g, float s,
                                                    std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(g + i), vs);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < n; ++i) dst[i] += g[i] * s;
}

// Register-blocked row microkernel: 4 ymm accumulators cover a 32-float
// output block per row. Each out[i][j] is accumulated over ascending p with
// the same zero-skip as the scalar loop, so per-element op order is
// identical regardless of the j-blocking.
__attribute__((target("avx2"))) void matmul_rows_avx2(const float* a, int lda, const float* b,
                                                      int ldb, float* out, int ldo, int rb,
                                                      int re, int k, int n) {
  for (int i = rb; i < re; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * lda;
    float* orow = out + static_cast<std::size_t>(i) * ldo;
    int j = 0;
    for (; j + 32 <= n; j += 32) {
      __m256 acc0 = _mm256_loadu_ps(orow + j);
      __m256 acc1 = _mm256_loadu_ps(orow + j + 8);
      __m256 acc2 = _mm256_loadu_ps(orow + j + 16);
      __m256 acc3 = _mm256_loadu_ps(orow + j + 24);
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(av);
        const float* brow = b + static_cast<std::size_t>(p) * ldb + j;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(brow)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 8)));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 16)));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 24)));
      }
      _mm256_storeu_ps(orow + j, acc0);
      _mm256_storeu_ps(orow + j + 8, acc1);
      _mm256_storeu_ps(orow + j + 16, acc2);
      _mm256_storeu_ps(orow + j + 24, acc3);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_loadu_ps(orow + j);
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const __m256 va = _mm256_set1_ps(av);
        acc = _mm256_add_ps(acc,
                            _mm256_mul_ps(va, _mm256_loadu_ps(b + static_cast<std::size_t>(p) * ldb + j)));
      }
      _mm256_storeu_ps(orow + j, acc);
    }
    for (; j < n; ++j) {
      float acc = orow[j];
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        acc += av * b[static_cast<std::size_t>(p) * ldb + j];
      }
      orow[j] = acc;
    }
  }
}

#endif  // defined(__x86_64__)

// Scalar fallbacks — byte-for-byte the executor's original loops.

void add_scalar(float* o, const float* x, const float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = x[i] + y[i];
}
void sub_scalar(float* o, const float* x, const float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = x[i] - y[i];
}
void mul_scalar(float* o, const float* x, const float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = x[i] * y[i];
}
void scale_scalar(float* o, const float* x, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = x[i] * s;
}
void relu_scalar(float* o, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = x[i] > 0.0f ? x[i] : 0.0f;
}
void one_minus_scalar(float* o, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = 1.0f - x[i];
}
void acc_add_scalar(float* dst, const float* g, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += g[i];
}
void acc_sub_scalar(float* dst, const float* g, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] -= g[i];
}
void acc_mul_scalar(float* dst, const float* g, const float* o, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += g[i] * o[i];
}
void acc_scale_scalar(float* dst, const float* g, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += g[i] * s;
}
void matmul_rows_scalar(const float* a, int lda, const float* b, int ldb, float* out, int ldo,
                        int rb, int re, int k, int n) {
  for (int i = rb; i < re; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * lda;
    float* orow = out + static_cast<std::size_t>(i) * ldo;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(p) * ldb;
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

}  // namespace

bool nn_simd_from_env() { return env_int("DEEPSEQ_NN_SIMD", 1) != 0; }

void refresh_from_env() { g_simd_enabled.store(nn_simd_from_env(), std::memory_order_relaxed); }

bool simd_active() { return cpu_has_avx2() && g_simd_enabled.load(std::memory_order_relaxed); }

int lanes() { return simd_active() ? 8 : 1; }

#if defined(__x86_64__)
#define DEEPSEQ_DISPATCH(fn, ...)             \
  do {                                        \
    if (simd_active()) {                      \
      fn##_avx2(__VA_ARGS__);                 \
    } else {                                  \
      fn##_scalar(__VA_ARGS__);               \
    }                                         \
  } while (0)
#else
#define DEEPSEQ_DISPATCH(fn, ...) fn##_scalar(__VA_ARGS__)
#endif

void add(float* o, const float* x, const float* y, std::size_t n) {
  DEEPSEQ_DISPATCH(add, o, x, y, n);
}
void sub(float* o, const float* x, const float* y, std::size_t n) {
  DEEPSEQ_DISPATCH(sub, o, x, y, n);
}
void mul(float* o, const float* x, const float* y, std::size_t n) {
  DEEPSEQ_DISPATCH(mul, o, x, y, n);
}
void scale(float* o, const float* x, float s, std::size_t n) {
  DEEPSEQ_DISPATCH(scale, o, x, s, n);
}
void relu(float* o, const float* x, std::size_t n) { DEEPSEQ_DISPATCH(relu, o, x, n); }
void one_minus(float* o, const float* x, std::size_t n) { DEEPSEQ_DISPATCH(one_minus, o, x, n); }
void acc_add(float* dst, const float* g, std::size_t n) { DEEPSEQ_DISPATCH(acc_add, dst, g, n); }
void acc_sub(float* dst, const float* g, std::size_t n) { DEEPSEQ_DISPATCH(acc_sub, dst, g, n); }
void acc_mul(float* dst, const float* g, const float* o, std::size_t n) {
  DEEPSEQ_DISPATCH(acc_mul, dst, g, o, n);
}
void acc_scale(float* dst, const float* g, float s, std::size_t n) {
  DEEPSEQ_DISPATCH(acc_scale, dst, g, s, n);
}
void matmul_rows(const float* a, int lda, const float* b, int ldb, float* out, int ldo, int rb,
                 int re, int k, int n) {
  DEEPSEQ_DISPATCH(matmul_rows, a, lda, b, ldb, out, ldo, rb, re, k, n);
}

#undef DEEPSEQ_DISPATCH

// Transcendentals stay scalar libm by design: exp/tanh have no exact vector
// twin.
void sigmoid(float* o, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

void tanh_(float* o, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = std::tanh(x[i]);
}

void add_row(float* o, const float* a, const float* row, std::size_t rows,
             std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) add(o + r * cols, a + r * cols, row, cols);
}

void mul_col(float* o, const float* v, const float* col, std::size_t rows,
             std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) scale(o + r * cols, v + r * cols, col[r], cols);
}

void segment_sum(float* out, const float* v, const int* segment, std::size_t rows,
                 std::size_t cols, std::size_t cb, std::size_t ce) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* dst = out + static_cast<std::size_t>(segment[r]) * cols;
    const float* src = v + r * cols;
    for (std::size_t c = cb; c < ce; ++c) dst[c] += src[c];
  }
}

void segment_softmax(float* out, const float* scores, const int* segment, std::size_t count,
                     int num_segments) {
  // Per-thread scratch: levels are small and called once per level, so
  // reusing the buffers keeps the fused path allocation-free.
  thread_local std::vector<float> seg_max;
  thread_local std::vector<double> seg_sum;
  seg_max.assign(static_cast<std::size_t>(num_segments), -1e30f);
  seg_sum.assign(static_cast<std::size_t>(num_segments), 0.0);
  for (std::size_t e = 0; e < count; ++e)
    seg_max[segment[e]] = std::max(seg_max[segment[e]], scores[e]);
  for (std::size_t e = 0; e < count; ++e) {
    const float x = std::exp(scores[e] - seg_max[segment[e]]);
    out[e] = x;
    seg_sum[segment[e]] += x;
  }
  for (std::size_t e = 0; e < count; ++e)
    out[e] = static_cast<float>(out[e] / seg_sum[segment[e]]);
}

}  // namespace deepseq::nn::kernels
