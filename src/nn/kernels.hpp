#pragma once

#include <cstddef>

namespace deepseq::nn::kernels {

/// Vectorized nn kernel primitives with a bit-identical scalar fallback.
///
/// Every routine here computes exactly the same per-element operation
/// sequence on both paths: elementwise kernels apply one IEEE op per
/// element, and the matmul microkernel accumulates each output element over
/// the inner dimension in ascending order with the same zero-skip, using
/// separate multiply and add (never FMA: the library builds with
/// -ffp-contract=off, so a fused multiply-add cannot change rounding on
/// either path). For n == 1 the AVX2 matmul holds eight output rows in eight
/// lanes (8x8 in-register transposes of A, the zero-skip as a masked add),
/// which is still each element's scalar sequence. The two backward matmuls
/// keep the scalar loops' sequences too: dA (matmul_nt_acc) holds output
/// columns in four-lane double accumulators (32 columns per pass) over a
/// transposed B, each lane a float multiply, an exact widen and a double
/// add in ascending p, narrowed once and added into the gradient; dB
/// (matmul_tn_acc) transposes A once and runs matmul_rows, whose float
/// accumulation and zero-skip are the old row-by-row acc_scale loop's; for
/// n == 1 it reads eight of A's columns per lane straight from A's rows
/// instead, with the same zero-skip blend as the n == 1 matmul.
/// sigmoid and tanh are in-tree polynomials, not libm: a range-reduced exp
/// (Cody-Waite ln 2 split, degree-5 polynomial, 2^n from integer bits) and
/// an odd tanh polynomial below |x| = 0.625, written once as a branch-free
/// scalar body and once in AVX2 with the same op sequence. They stay
/// within 3 ulp of a double-precision reference wherever that reference is
/// a normal float, map NaN to NaN, sigmoid(+-inf) to 1 and 0 and
/// tanh(+-inf) to +-1, and keep tanh(-0) = -0. The AVX2 paths therefore
/// produce byte-identical results to the scalar paths, which
/// tests/nn/test_kernels.cpp pins per kernel; segment_softmax alone still
/// calls libm exp, on both paths. An operation on two NaNs may carry
/// either operand's payload, depending on the path.
///
/// Dispatch is runtime: the AVX2 path runs only when the host supports it
/// AND DEEPSEQ_NN_SIMD (env_int, default 1) is nonzero. The process reads
/// the gate once at startup; a test or bench that flips DEEPSEQ_NN_SIMD
/// in-process re-reads it through the refresh below.

/// DEEPSEQ_NN_SIMD knob (env_int): 0 forces the scalar fallback;
/// unset or any other value enables the vector path where supported.
bool nn_simd_from_env();

/// Re-read DEEPSEQ_NN_SIMD into the process-global gate (one env read, one
/// relaxed store).
void refresh_from_env();

/// True when the vector path is live: host supports AVX2 and the gate is
/// open. Purely informational for callers — every kernel dispatches
/// internally.
bool simd_active();

/// SIMD lane width the dispatcher will use: 8 when simd_active(), else 1.
/// Surfaced through ExecStats so benches and traces record which path ran.
int lanes();

// ---- elementwise forward ----------------------------------------------------
void add(float* o, const float* x, const float* y, std::size_t n);
void sub(float* o, const float* x, const float* y, std::size_t n);
void mul(float* o, const float* x, const float* y, std::size_t n);
void scale(float* o, const float* x, float s, std::size_t n);
void relu(float* o, const float* x, std::size_t n);
void one_minus(float* o, const float* x, std::size_t n);

// ---- elementwise backward accumulations ------------------------------------
void acc_add(float* dst, const float* g, std::size_t n);                   // dst += g
void acc_sub(float* dst, const float* g, std::size_t n);                   // dst -= g
void acc_mul(float* dst, const float* g, const float* o, std::size_t n);   // dst += g * o
void acc_scale(float* dst, const float* g, float s, std::size_t n);        // dst += g * s

/// Register-blocked matmul microkernel over m output rows:
///   out[i][j] += sum_p a[i][p] * b[p][j]
/// accumulated per element in ascending p with the sequential kernel's
/// zero-skip (a[i][p] == 0 contributes nothing, bit-for-bit). `lda`/`ldb`/
/// `ldo` are row strides in floats. Accumulates into `out` (callers
/// zero-initialize it: the record layer at record time, the fused inference
/// path per level).
void matmul_rows(const float* a, int lda, const float* b, int ldb, float* out,
                 int ldo, int m, int k, int n);

/// Backward of out = A B with respect to A: out (m x n) += g (m x k) * b^T,
/// b being n x k. Each element sums float products g[i][p] * b[j][p] into a
/// double from +0.0 in ascending p, then adds the sum, rounded to float,
/// into out[i][j].
void matmul_nt_acc(const float* g, int ldg, const float* b, int ldb,
                   float* out, int ldo, int m, int k, int n);

/// Backward of out = A B with respect to B: out (k x n) += a^T * g, a being
/// m x k and g m x n. Each element accumulates a[p][i] * g[p][j] in float
/// over ascending p, skipping a[p][i] == 0 (matmul_rows over a^T).
void matmul_tn_acc(const float* a, int lda, const float* g, int ldg,
                   float* out, int ldo, int m, int k, int n);

// ---- row-structured formulas -----------------------------------------------
//
// The per-element loops behind the recorded sigmoid/tanh/add_row/mul_col/
// segment ops. Graph records call them on whole ops and the fused inference
// path (Aggregator::infer, GruCell::infer) on whole levels, so the two
// paths share one implementation of every formula.

void sigmoid(float* o, const float* x, std::size_t n);  // 1 / (1 + exp(-x))
void tanh_(float* o, const float* x, std::size_t n);
/// o (rows x cols) = a + row, the 1 x cols row broadcast over rows.
void add_row(float* o, const float* a, const float* row, std::size_t rows,
             std::size_t cols);
/// o (rows x cols) = v scaled per row by col[r].
void mul_col(float* o, const float* v, const float* col, std::size_t rows,
             std::size_t cols);
/// out[segment[r]][c] += v[r][c] over rows r in ascending order (out is
/// num_segments x cols).
void segment_sum(float* out, const float* v, const int* segment,
                 std::size_t rows, std::size_t cols);
/// Softmax of the `count` scores within each of `num_segments` segments
/// (max-shifted exp, double-precision segment sums). Not splittable.
void segment_softmax(float* out, const float* scores, const int* segment,
                     std::size_t count, int num_segments);

// ---- row-structured backward formulas ----------------------------------------
//
// The gradient loops of the formulas above. nn::run_backward calls them per
// taped op and the fused DeepSeq level op per level, so both accumulate
// every gradient element with one sequence. Each accumulates into `dst`.

/// dst += g * y * (1 - y), y = sigmoid's output.
void sigmoid_backward(float* dst, const float* g, const float* y, std::size_t n);
/// dst += g * (1 - y * y), y = tanh's output.
void tanh_backward(float* dst, const float* g, const float* y, std::size_t n);
/// add_row's bias gradient: dst (1 x cols) += g's rows in ascending order.
void bias_backward(float* dst, const float* g, std::size_t rows, std::size_t cols);
/// mul_col's gradient w.r.t. the values: dst (rows x cols) += g * col[r].
void mul_col_backward_values(float* dst, const float* g, const float* col,
                             std::size_t rows, std::size_t cols);
/// mul_col's gradient w.r.t. the column: dst[r] += the double sum of
/// g[r][c] * v[r][c] over ascending c, rounded to float once. `ldv` is v's
/// row stride in floats.
void mul_col_backward_col(float* dst, const float* g, const float* v, std::size_t ldv,
                          std::size_t rows, std::size_t cols);
/// segment_sum's gradient: dst row r (rows x cols) += g row segment[r].
void segment_sum_backward(float* dst, const float* g, const int* segment,
                          std::size_t rows, std::size_t cols);
/// segment_softmax's gradient: dst[e] += y[e] * (g[e] - s), s the double
/// sum of g * y over e's segment, rounded to float.
void segment_softmax_backward(float* dst, const float* g, const float* y,
                              const int* segment, std::size_t count,
                              int num_segments);

}  // namespace deepseq::nn::kernels
