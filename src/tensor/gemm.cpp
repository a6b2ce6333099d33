#include "tensor/gemm.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd.h"
#include "util/cpu.h"
#include "util/thread_pool.h"

namespace fedclust::tensor {

namespace {

// Below this many multiply-adds, thread dispatch costs more than it saves.
constexpr std::size_t kParallelThreshold = 1u << 18;

// Reduction steps per transposed chunk. A transposed operand is brought to
// the NN layout the kernels consume one chunk of k at a time, so the
// scratch stays cache-sized (kTransChunk x the operand's other dimension)
// however long k grows — conv dW reduces over a whole minibatch of output
// positions.
constexpr std::size_t kTransChunk = 256;

using RangeKernel = void (*)(std::size_t, std::size_t, std::size_t,
                             std::size_t, float, const float*, std::size_t,
                             const float*, std::size_t, float*, std::size_t);

// Reusable per-thread transpose scratch, one slot per operand, so the
// transposed GEMMs of the training hot loop never hit the allocator.
std::vector<float>& transpose_scratch(int slot) {
  thread_local std::vector<float> bufs[2];
  return bufs[slot];
}

// Materializes op(X) into `out` as a contiguous row-major (rows, cols)
// buffer through the dispatched transpose kernel; x is (cols, rows) with
// leading dim ldx.
const float* transpose_into(std::vector<float>& out, const float* x,
                            std::size_t rows, std::size_t cols,
                            std::size_t ldx) {
  out.resize(rows * cols);
  simd::kernels().transpose(rows, cols, x, ldx, out.data(), cols);
  return out.data();
}

// C rows [m0, m1) += alpha * op(A) op(B) through the NN range kernel. With
// a transposed operand the reduction runs in ascending kTransChunk chunks,
// each transposed into scratch first; C accumulates across the chunks, so
// every element still sees its k terms in ascending p — the single NN
// call's sequence, bit for bit.
void gemm_rows(RangeKernel kernel, Trans trans_a, Trans trans_b,
               std::size_t m0, std::size_t m1, std::size_t n, std::size_t k,
               float alpha, const float* a, std::size_t lda, const float* b,
               std::size_t ldb, float* c, std::size_t ldc) {
  if (trans_a == Trans::kNo && trans_b == Trans::kNo) {
    kernel(m0, m1, n, k, alpha, a, lda, b, ldb, c, ldc);
    return;
  }
  const std::size_t rows = m1 - m0;
  for (std::size_t kb = 0; kb < k; kb += kTransChunk) {
    const std::size_t kc = std::min(kTransChunk, k - kb);
    // A^T is stored (k, m): rows [kb, kb+kc), columns [m0, m1).
    const float* ak = trans_a == Trans::kYes
                          ? transpose_into(transpose_scratch(0),
                                           a + kb * lda + m0, rows, kc, lda)
                          : a + m0 * lda + kb;
    const std::size_t ldak = trans_a == Trans::kYes ? kc : lda;
    // B^T is stored (n, k): columns [kb, kb+kc).
    const float* bk = trans_b == Trans::kYes
                          ? transpose_into(transpose_scratch(1), b + kb, kc,
                                           n, ldb)
                          : b + kb * ldb;
    const std::size_t ldbk = trans_b == Trans::kYes ? n : ldb;
    kernel(0, rows, n, kc, alpha, ak, ldak, bk, ldbk, c + m0 * ldc, ldc);
  }
}

}  // namespace

void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, std::size_t lda,
          const float* b, std::size_t ldb, float beta, float* c,
          std::size_t ldc) {
  OBS_SPAN_ARG("gemm", m * n * k);
  OBS_COUNTER_ADD("gemm.calls", 1);
  OBS_COUNTER_ADD("gemm.madds", m * n * k);
  const simd::KernelTable& kt = simd::kernels();
  // Scale / clear C first so the kernel can be pure accumulation. The
  // common beta == 0 case is a straight fill; beta-scaling goes through the
  // dispatched elementwise kernel (bit-identical to the scalar loop at any
  // ISA). Contiguous C (ldc == n) collapses to one pass over m*n.
  if (beta == 0.0f) {
    if (ldc == n) {
      std::fill(c, c + m * n, 0.0f);
    } else {
      for (std::size_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
      }
    }
  } else if (beta != 1.0f) {
    if (ldc == n) {
      kt.scale(c, m * n, beta);
    } else {
      for (std::size_t i = 0; i < m; ++i) kt.scale(c + i * ldc, n, beta);
    }
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;

  // The exact kernel is bit-identical to scalar at every ISA; the FMA-
  // contracted variant only runs under the --fast-math-kernels opt-in.
  const RangeKernel kernel = util::fast_math_kernels() ? kt.gemm_nn_range_fma
                                                       : kt.gemm_nn_range;
  if (m * n * k >= kParallelThreshold && util::global_pool().size() > 0) {
    util::parallel_for_chunked(
        0, m, [&](std::size_t lo, std::size_t hi) {
          gemm_rows(kernel, trans_a, trans_b, lo, hi, n, k, alpha, a, lda, b,
                    ldb, c, ldc);
        });
  } else {
    gemm_rows(kernel, trans_a, trans_b, 0, m, n, k, alpha, a, lda, b, ldb, c,
              ldc);
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  return matmul(a, Trans::kNo, b, Trans::kNo);
}

Tensor matmul(const Tensor& a, Trans trans_a, const Tensor& b,
              Trans trans_b) {
  if (a.ndim() != 2 || b.ndim() != 2) {
    throw std::invalid_argument("matmul: expected 2-D tensors");
  }
  const std::size_t m = trans_a == Trans::kNo ? a.dim(0) : a.dim(1);
  const std::size_t ka = trans_a == Trans::kNo ? a.dim(1) : a.dim(0);
  const std::size_t kb = trans_b == Trans::kNo ? b.dim(0) : b.dim(1);
  const std::size_t n = trans_b == Trans::kNo ? b.dim(1) : b.dim(0);
  if (ka != kb) {
    throw std::invalid_argument("matmul: inner dimension mismatch " +
                                a.shape_str() + " x " + b.shape_str());
  }
  Tensor c({m, n});
  gemm(trans_a, trans_b, m, n, ka, 1.0f, a.data(), a.dim(1), b.data(),
       b.dim(1), 0.0f, c.data(), n);
  return c;
}

}  // namespace fedclust::tensor
