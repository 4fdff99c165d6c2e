#include "nn/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
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

// Process-global gate, read from the env once at startup and again only on
// an explicit refresh. Both paths are bit-identical, so a refresh racing
// another thread's kernels could at worst mix paths across kernels —
// results are unchanged either way; relaxed ordering is sufficient.
std::atomic<bool> g_simd_enabled{nn_simd_from_env()};

// ---- activation polynomials -------------------------------------------------
//
// sigmoid and tanh share one exp of a nonpositive argument y:
//   n = round(y / ln 2) via the 1.5 * 2^23 shifter (no floor, no libm),
//   r = y - n ln2_hi - n ln2_lo (Cody-Waite split; n ln2_hi is exact),
//   exp(r) = 1 + r + r^2 P(r), P the degree-5 Cephes expf polynomial,
//   2^n built from the shifter's integer bits.
// y is clamped below at kExpMin, so n >= -127. y < -126.5 ln 2 (~-87.68)
// rounds to n = -127, whose 2^n bits are +0, so exp flushes to zero where
// its true value is already subnormal. The clamp is a bit select rather
// than a comparison branch, so NaN passes through and the scalar loop stays
// branch-free (GCC vectorizes it with SSE2).
// tanh uses the odd Cephes tanhf polynomial below |x| = 0.625 and
// (1 - e) / (1 + e), e = exp(-2|x|), above; both are evaluated and one is
// selected. The scalar and AVX2 bodies issue the same IEEE operations in
// the same order, so they agree bit for bit.
constexpr float kExpMin = -88.0f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kShifter = 12582912.0f;  // 1.5 * 2^23
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpP[] = {1.9875691500e-4f, 1.3981999507e-3f, 8.3334519073e-3f,
                           4.1665795894e-2f, 1.6666665459e-1f, 5.0000001201e-1f};
constexpr float kTanhSmall = 0.625f;
constexpr float kTanhP[] = {-5.70498872745e-3f, 2.06390887954e-2f, -5.37397155531e-2f,
                            1.33314422036e-1f, -3.33332819422e-1f};
constexpr std::uint32_t kSignBit = 0x80000000u;
constexpr std::uint32_t kOneBits = 0x3F800000u;  // 1.0f; also 2^n's exponent bias

inline std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }
inline float from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }
/// mask ? a : b, lane-wise on bits (mask is all ones or all zeros).
inline float select_bits(std::uint32_t mask, float a, float b) {
  return from_bits((bits(a) & mask) | (bits(b) & ~mask));
}
inline std::uint32_t mask_if(bool c) { return 0u - static_cast<std::uint32_t>(c); }

/// exp(y) for y <= 0 (NaN propagates).
inline float exp_nonpos(float y) {
  y = select_bits(mask_if(kExpMin > y), kExpMin, y);
  const float kf = y * kLog2e + kShifter;
  const float nf = kf - kShifter;
  float r = y - nf * kLn2Hi;
  r = r - nf * kLn2Lo;
  float p = kExpP[0];
  for (int i = 1; i < 6; ++i) p = p * r + kExpP[i];
  const float e = (p * (r * r) + r) + 1.0f;
  return e * from_bits((bits(kf) << 23) + kOneBits);
}

/// 1 / (1 + exp(-x)) as 1 / (1 + e) for x >= 0 and e / (1 + e) for x < 0,
/// e = exp(-|x|), so the exp never overflows.
inline float sigmoid_one(float x) {
  const float e = exp_nonpos(from_bits(bits(x) | kSignBit));
  const float num = select_bits(mask_if((bits(x) & kSignBit) != 0), e, 1.0f);
  return num / (1.0f + e);
}

inline float tanh_one(float x) {
  const float a = from_bits(bits(x) & ~kSignBit);
  const float e = exp_nonpos(a * -2.0f);
  const float large = (1.0f - e) / (1.0f + e);
  const float z = a * a;
  float q = kTanhP[0];
  for (int i = 1; i < 5; ++i) q = q * z + kTanhP[i];
  const float small = q * z * a + a;
  const float t = select_bits(mask_if(a < kTanhSmall), small, large);
  return from_bits(bits(t) | (bits(x) & kSignBit));
}

#if defined(__x86_64__)

// AVX2 bodies. target("avx2") deliberately excludes "fma", and the library
// builds with -ffp-contract=off (CMakeLists.txt), so every multiply-add
// stays a separate vmulps + vaddps and rounds like the scalar body even
// when -march=native enables FMA.

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

__attribute__((target("avx2"))) inline void transpose8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]), t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]), t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]), t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]), t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

// One ascending-p step of eight lanes: acc += a * b unless a == 0, where
// the blend keeps acc untouched exactly as the scalar loop's `continue`.
__attribute__((target("avx2"))) inline __m256 matvec_step(__m256 acc, __m256 a, float b) {
  const __m256 sum = _mm256_add_ps(acc, _mm256_mul_ps(a, _mm256_set1_ps(b)));
  return _mm256_blendv_ps(acc, sum, _mm256_cmp_ps(a, _mm256_setzero_ps(), _CMP_NEQ_UQ));
}

// n == 1 (the attention and gate logits): eight output rows ride in eight
// lanes. Each 8x8 block of A is transposed in registers so that register q
// holds a[i][p + q] for the eight rows i, and every lane accumulates over
// ascending p with the zero-skip as a masked add — the scalar loop's exact
// per-element sequence. Returns the first row it did not compute.
__attribute__((target("avx2"))) int matvec_rows8_avx2(const float* a, int lda, const float* b,
                                                      int ldb, float* out, int ldo, int m,
                                                      int k) {
  int i = 0;
  for (; i + 8 <= m; i += 8) {
    const float* ablock = a + static_cast<std::size_t>(i) * lda;
    float* oblock = out + static_cast<std::size_t>(i) * ldo;
    alignas(32) float lane[8];
    for (int r = 0; r < 8; ++r) lane[r] = oblock[static_cast<std::size_t>(r) * ldo];
    __m256 acc = _mm256_load_ps(lane);
    __m256 col[8];
    int p = 0;
    for (; p + 8 <= k; p += 8) {
      for (int r = 0; r < 8; ++r)
        col[r] = _mm256_loadu_ps(ablock + static_cast<std::size_t>(r) * lda + p);
      transpose8(col);
      for (int q = 0; q < 8; ++q)
        acc = matvec_step(acc, col[q], b[static_cast<std::size_t>(p + q) * ldb]);
    }
    if (p < k) {  // k % 8 columns: masked loads never touch past a row's end
      const __m256i live = _mm256_cmpgt_epi32(_mm256_set1_epi32(k - p),
                                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
      for (int r = 0; r < 8; ++r)
        col[r] = _mm256_maskload_ps(ablock + static_cast<std::size_t>(r) * lda + p, live);
      transpose8(col);
      for (int q = 0; p + q < k; ++q)
        acc = matvec_step(acc, col[q], b[static_cast<std::size_t>(p + q) * ldb]);
    }
    _mm256_store_ps(lane, acc);
    for (int r = 0; r < 8; ++r) oblock[static_cast<std::size_t>(r) * ldo] = lane[r];
  }
  return i;
}

// Register-blocked row microkernel: 4 ymm accumulators cover a 32-float
// output block per row. Each out[i][j] is accumulated over ascending p with
// the same zero-skip as the scalar loop, so per-element op order is
// identical regardless of the j-blocking. For n == 1 the matvec above takes
// whole 8-row blocks and the leftover rows fall through to the j tail.
__attribute__((target("avx2"))) void matmul_rows_avx2(const float* a, int lda, const float* b,
                                                      int ldb, float* out, int ldo, int m,
                                                      int k, int n) {
  const int first = n == 1 ? matvec_rows8_avx2(a, lda, b, ldb, out, ldo, m, k) : 0;
  for (int i = first; i < m; ++i) {
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

/// A per-thread buffer for the backward matmuls' transposed operand. It
/// only grows, so steady-state training allocates nothing here, and it is
/// never empty, so a zero-size operand still gets a non-null base pointer.
float* transpose_scratch(std::size_t count) {
  thread_local std::vector<float> buf(8);
  if (buf.size() < count) buf.resize(count);
  return buf.data();
}

/// dst (cols x rows, row stride ldd) = src (rows x cols, row stride lds)
/// transposed, 8x8 blocks in registers and the edges element by element.
__attribute__((target("avx2"))) void transpose_avx2(const float* src, int lds, int rows,
                                                    int cols, float* dst, int ldd) {
  int r = 0;
  for (; r + 8 <= rows; r += 8) {
    const float* block = src + static_cast<std::size_t>(r) * lds;
    int c = 0;
    for (; c + 8 <= cols; c += 8) {
      __m256 reg[8];
      for (int q = 0; q < 8; ++q)
        reg[q] = _mm256_loadu_ps(block + static_cast<std::size_t>(q) * lds + c);
      transpose8(reg);
      for (int q = 0; q < 8; ++q)
        _mm256_storeu_ps(dst + static_cast<std::size_t>(c + q) * ldd + r, reg[q]);
    }
    for (; c < cols; ++c)
      for (int q = 0; q < 8; ++q)
        dst[static_cast<std::size_t>(c) * ldd + r + q] = block[static_cast<std::size_t>(q) * lds + c];
  }
  for (; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      dst[static_cast<std::size_t>(c) * ldd + r] = src[static_cast<std::size_t>(r) * lds + c];
}

// kQuads x 4 output columns of one dA row, one column per double lane: the
// float product g[p] * bt[p][j], widened exactly and added to an
// accumulator that starts at +0.0, in ascending p; then one narrowing and a
// float add into out. That is the scalar loop's sequence per element. Only
// the first `live` columns are written (the last quads of a row may be
// partial or past its end).
template <int kQuads>
__attribute__((target("avx2"))) inline void nt_quads(const float* grow, const float* bt, int ldt,
                                                     int k, float* orow, int live) {
  __m256d acc[kQuads];
  for (__m256d& v : acc) v = _mm256_setzero_pd();
  for (int p = 0; p < k; ++p) {
    const __m128 gv = _mm_set1_ps(grow[p]);
    const float* brow = bt + static_cast<std::size_t>(p) * ldt;
    for (int q = 0; q < kQuads; ++q)
      acc[q] = _mm256_add_pd(acc[q], _mm256_cvtps_pd(_mm_mul_ps(gv, _mm_loadu_ps(brow + 4 * q))));
  }
  for (int q = 0; q < kQuads && 4 * q < live; ++q) {
    const __m128 sum = _mm256_cvtpd_ps(acc[q]);
    float* o = orow + 4 * q;
    if (live >= 4 * (q + 1)) {
      _mm_storeu_ps(o, _mm_add_ps(_mm_loadu_ps(o), sum));
    } else {
      const __m128i mask = _mm_cmpgt_epi32(_mm_set1_epi32(live - 4 * q), _mm_setr_epi32(0, 1, 2, 3));
      _mm_maskstore_ps(o, mask, _mm_add_ps(_mm_maskload_ps(o, mask), sum));
    }
  }
}

// dA: out (m x n) += g (m x k) * b^T. B is transposed once into rows of
// ldt = n rounded up to 8 floats (padding zeroed) so that output columns
// are contiguous loads of bt; 32 columns (eight double accumulators) run
// per pass to cover the add latency, then 8 at a time.
__attribute__((target("avx2"))) void matmul_nt_acc_avx2(const float* g, int ldg, const float* b,
                                                        int ldb, float* out, int ldo, int m,
                                                        int k, int n) {
  const int ldt = (n + 7) & ~7;
  float* bt = transpose_scratch(static_cast<std::size_t>(k) * ldt);
  transpose_avx2(b, ldb, n, k, bt, ldt);
  if (ldt != n)
    for (int p = 0; p < k; ++p)
      std::fill(bt + static_cast<std::size_t>(p) * ldt + n,
                bt + static_cast<std::size_t>(p + 1) * ldt, 0.0f);
  for (int i = 0; i < m; ++i) {
    const float* grow = g + static_cast<std::size_t>(i) * ldg;
    float* orow = out + static_cast<std::size_t>(i) * ldo;
    int j = 0;
    for (; j + 32 <= n; j += 32) nt_quads<8>(grow, bt + j, ldt, k, orow + j, 32);
    for (; j < n; j += 8) nt_quads<2>(grow, bt + j, ldt, k, orow + j, n - j);
  }
}

// dB for n == 1 (the attention and gate weights): out[i] += sum_p a[p][i]
// g[p]. Eight of A's columns ride in eight lanes, loaded straight from each
// row of A, and every lane accumulates over ascending p with the zero-skip
// blend; the last k % 8 columns run the same sequence one at a time.
__attribute__((target("avx2"))) void matvec_tn_avx2(const float* a, int lda, const float* g,
                                                    int ldg, float* out, int ldo, int m,
                                                    int k) {
  int i = 0;
  for (; i + 8 <= k; i += 8) {
    alignas(32) float lane[8];
    for (int r = 0; r < 8; ++r) lane[r] = out[static_cast<std::size_t>(i + r) * ldo];
    __m256 acc = _mm256_load_ps(lane);
    for (int p = 0; p < m; ++p)
      acc = matvec_step(acc, _mm256_loadu_ps(a + static_cast<std::size_t>(p) * lda + i),
                        g[static_cast<std::size_t>(p) * ldg]);
    _mm256_store_ps(lane, acc);
    for (int r = 0; r < 8; ++r) out[static_cast<std::size_t>(i + r) * ldo] = lane[r];
  }
  for (; i < k; ++i) {
    float acc = out[static_cast<std::size_t>(i) * ldo];
    for (int p = 0; p < m; ++p) {
      const float av = a[static_cast<std::size_t>(p) * lda + i];
      if (av == 0.0f) continue;
      acc += av * g[static_cast<std::size_t>(p) * ldg];
    }
    out[static_cast<std::size_t>(i) * ldo] = acc;
  }
}

// dB: out (k x n) += a^T g. A is transposed once, so every output row reads
// one contiguous row of a^T, and matmul_rows accumulates each element over
// ascending p with the zero-skip on a[p][i], as the row-by-row acc_scale
// loop does (a * g and g * a are the same product).
__attribute__((target("avx2"))) void matmul_tn_acc_avx2(const float* a, int lda, const float* g,
                                                        int ldg, float* out, int ldo, int m,
                                                        int k, int n) {
  if (n == 1) {
    matvec_tn_avx2(a, lda, g, ldg, out, ldo, m, k);
    return;
  }
  float* at = transpose_scratch(static_cast<std::size_t>(k) * m);
  transpose_avx2(a, lda, m, k, at, m);
  matmul_rows_avx2(at, m, g, ldg, out, ldo, k, m, n);
}

/// exp(y) for y <= 0, lane for lane the operation sequence of exp_nonpos.
__attribute__((target("avx2"))) inline __m256 exp_nonpos_avx2(__m256 y) {
  y = _mm256_max_ps(_mm256_set1_ps(kExpMin), y);  // kExpMin > y ? kExpMin : y
  const __m256 shifter = _mm256_set1_ps(kShifter);
  const __m256 kf = _mm256_add_ps(_mm256_mul_ps(y, _mm256_set1_ps(kLog2e)), shifter);
  const __m256 nf = _mm256_sub_ps(kf, shifter);
  __m256 r = _mm256_sub_ps(y, _mm256_mul_ps(nf, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(nf, _mm256_set1_ps(kLn2Lo)));
  __m256 p = _mm256_set1_ps(kExpP[0]);
  for (int i = 1; i < 6; ++i) p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP[i]));
  const __m256 e = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
                                 _mm256_set1_ps(1.0f));
  const __m256i pow2n = _mm256_add_epi32(_mm256_slli_epi32(_mm256_castps_si256(kf), 23),
                                         _mm256_set1_epi32(static_cast<int>(kOneBits)));
  return _mm256_mul_ps(e, _mm256_castsi256_ps(pow2n));
}

__attribute__((target("avx2"))) void sigmoid_avx2(float* o, const float* x, std::size_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f), one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 e = exp_nonpos_avx2(_mm256_or_ps(v, sign));
    const __m256 num = _mm256_blendv_ps(one, e, v);  // v's sign bit picks e
    _mm256_storeu_ps(o + i, _mm256_div_ps(num, _mm256_add_ps(one, e)));
  }
  for (; i < n; ++i) o[i] = sigmoid_one(x[i]);
}

__attribute__((target("avx2"))) void tanh_avx2(float* o, const float* x, std::size_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f), one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 a = _mm256_andnot_ps(sign, v);
    const __m256 e = exp_nonpos_avx2(_mm256_mul_ps(a, _mm256_set1_ps(-2.0f)));
    const __m256 large = _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e));
    const __m256 z = _mm256_mul_ps(a, a);
    __m256 q = _mm256_set1_ps(kTanhP[0]);
    for (int j = 1; j < 5; ++j) q = _mm256_add_ps(_mm256_mul_ps(q, z), _mm256_set1_ps(kTanhP[j]));
    const __m256 small = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(q, z), a), a);
    const __m256 is_small = _mm256_cmp_ps(a, _mm256_set1_ps(kTanhSmall), _CMP_LT_OQ);
    const __m256 t = _mm256_blendv_ps(large, small, is_small);
    _mm256_storeu_ps(o + i, _mm256_or_ps(t, _mm256_and_ps(v, sign)));
  }
  for (; i < n; ++i) o[i] = tanh_one(x[i]);
}

#endif  // defined(__x86_64__)

// Scalar fallbacks — byte-for-byte the executor's original loops (the
// backward matmuls included), plus the activation polynomials above.

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
                        int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
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
void matmul_nt_acc_scalar(const float* g, int ldg, const float* b, int ldb, float* out, int ldo,
                          int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    const float* grow = g + static_cast<std::size_t>(i) * ldg;
    float* orow = out + static_cast<std::size_t>(i) * ldo;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * ldb;
      double acc = 0.0;
      for (int p = 0; p < k; ++p) acc += grow[p] * brow[p];
      orow[j] += static_cast<float>(acc);
    }
  }
}
void matmul_tn_acc_scalar(const float* a, int lda, const float* g, int ldg, float* out, int ldo,
                          int m, int k, int n) {
  for (int i = 0; i < k; ++i) {
    float* orow = out + static_cast<std::size_t>(i) * ldo;
    for (int p = 0; p < m; ++p) {
      const float av = a[static_cast<std::size_t>(p) * lda + i];
      if (av == 0.0f) continue;
      acc_scale_scalar(orow, g + static_cast<std::size_t>(p) * ldg, av,
                       static_cast<std::size_t>(n));
    }
  }
}
void sigmoid_scalar(float* o, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = sigmoid_one(x[i]);
}
void tanh_scalar(float* o, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = tanh_one(x[i]);
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
void matmul_rows(const float* a, int lda, const float* b, int ldb, float* out, int ldo, int m,
                 int k, int n) {
  DEEPSEQ_DISPATCH(matmul_rows, a, lda, b, ldb, out, ldo, m, k, n);
}
void matmul_nt_acc(const float* g, int ldg, const float* b, int ldb, float* out, int ldo, int m,
                   int k, int n) {
  DEEPSEQ_DISPATCH(matmul_nt_acc, g, ldg, b, ldb, out, ldo, m, k, n);
}
void matmul_tn_acc(const float* a, int lda, const float* g, int ldg, float* out, int ldo, int m,
                   int k, int n) {
  DEEPSEQ_DISPATCH(matmul_tn_acc, a, lda, g, ldg, out, ldo, m, k, n);
}
void sigmoid(float* o, const float* x, std::size_t n) { DEEPSEQ_DISPATCH(sigmoid, o, x, n); }
void tanh_(float* o, const float* x, std::size_t n) { DEEPSEQ_DISPATCH(tanh, o, x, n); }

#undef DEEPSEQ_DISPATCH

void add_row(float* o, const float* a, const float* row, std::size_t rows,
             std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) add(o + r * cols, a + r * cols, row, cols);
}

void mul_col(float* o, const float* v, const float* col, std::size_t rows,
             std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) scale(o + r * cols, v + r * cols, col[r], cols);
}

void segment_sum(float* out, const float* v, const int* segment, std::size_t rows,
                 std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* dst = out + static_cast<std::size_t>(segment[r]) * cols;
    const float* src = v + r * cols;
    for (std::size_t c = 0; c < cols; ++c) dst[c] += src[c];
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

void sigmoid_backward(float* dst, const float* g, const float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += g[i] * y[i] * (1.0f - y[i]);
}

void tanh_backward(float* dst, const float* g, const float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += g[i] * (1.0f - y[i] * y[i]);
}

void bias_backward(float* dst, const float* g, std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) acc_add(dst, g + r * cols, cols);
}

void mul_col_backward_values(float* dst, const float* g, const float* col,
                             std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r)
    acc_scale(dst + r * cols, g + r * cols, col[r], cols);
}

void mul_col_backward_col(float* dst, const float* g, const float* v, std::size_t ldv,
                          std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* grow = g + r * cols;
    const float* vrow = v + r * ldv;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) acc += static_cast<double>(grow[c]) * vrow[c];
    dst[r] += static_cast<float>(acc);
  }
}

void segment_sum_backward(float* dst, const float* g, const int* segment,
                          std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r)
    acc_add(dst + r * cols, g + static_cast<std::size_t>(segment[r]) * cols, cols);
}

void segment_softmax_backward(float* dst, const float* g, const float* y,
                              const int* segment, std::size_t count,
                              int num_segments) {
  thread_local std::vector<double> seg_dot;
  seg_dot.assign(static_cast<std::size_t>(num_segments), 0.0);
  for (std::size_t e = 0; e < count; ++e)
    seg_dot[segment[e]] += static_cast<double>(g[e]) * y[e];
  for (std::size_t e = 0; e < count; ++e)
    dst[e] += y[e] * (g[e] - static_cast<float>(seg_dot[segment[e]]));
}

}  // namespace deepseq::nn::kernels
