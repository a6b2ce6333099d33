#pragma once

// Single-precision GEMM: C = alpha * op(A) * op(B) + beta * C.
//
// Runs the NN range kernel of the dispatched SIMD table (tensor/simd.h),
// bit-identical to the scalar golden kernel at every ISA. A transposed
// operand is transposed in cache-sized chunks of the reduction dimension
// rather than materialized whole. Rows of C are distributed over the global
// thread pool when the problem is large enough to amortize dispatch. This is
// the workhorse behind Linear layers and im2col convolution.

#include <cstddef>

#include "tensor/tensor.h"

namespace fedclust::tensor {

enum class Trans { kNo, kYes };

// Raw-pointer GEMM with row-major leading dimensions. op(A) is (m, k),
// op(B) is (k, n), C is (m, n) with leading dimension ldc.
void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, std::size_t lda,
          const float* b, std::size_t ldb, float beta, float* c,
          std::size_t ldc);

// Tensor-level matmul; a is (m, k), b is (k, n); returns (m, n).
Tensor matmul(const Tensor& a, const Tensor& b);
// a is (m, k) interpreted via trans flags: op(a) (m', k') etc.
Tensor matmul(const Tensor& a, Trans trans_a, const Tensor& b, Trans trans_b);

}  // namespace fedclust::tensor
