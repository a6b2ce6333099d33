#include "tensor/conv_fused.h"

#include <algorithm>
#include <vector>

#include "obs/trace.h"
#include "tensor/im2col.h"
#include "tensor/simd.h"
#include "util/cpu.h"

namespace fedclust::tensor {

namespace {

// Rows of the column matrix expanded per panel. 64 rows of a typical
// 24x24 output tile is ~144 KiB — fits L2 alongside the weight panel, so
// each expanded row is consumed while still hot instead of round-tripping
// through a full column-matrix buffer.
constexpr std::size_t kPanelRows = 64;

}  // namespace

void conv2d_forward_fused(const float* img, std::size_t c, std::size_t h,
                          std::size_t w, const float* weights,
                          std::size_t out_c, std::size_t kh, std::size_t kw,
                          std::size_t stride, std::size_t pad, float* out) {
  const std::size_t oh = conv_out_dim(h, kh, stride, pad);
  const std::size_t ow = conv_out_dim(w, kw, stride, pad);
  const std::size_t out_area = oh * ow;
  const std::size_t col_rows = c * kh * kw;
  OBS_SPAN_ARG("conv2d.fused", out_c * out_area * col_rows);
  if (out_c == 0 || out_area == 0) return;

  std::fill(out, out + out_c * out_area, 0.0f);
  if (col_rows == 0) return;

  thread_local std::vector<float> panel;
  panel.resize(std::min(kPanelRows, col_rows) * out_area);

  const simd::KernelTable& kt = simd::kernels();
  const auto kernel = util::fast_math_kernels() ? kt.gemm_nn_range_fma
                                                : kt.gemm_nn_range;
  // Ascending panels over the reduction dimension: out accumulates the
  // alpha*a*b terms for p = 0..col_rows-1 in exactly the order the unfused
  // single GEMM would, so the fusion is bit-exact.
  for (std::size_t r0 = 0; r0 < col_rows; r0 += kPanelRows) {
    const std::size_t r1 = std::min(col_rows, r0 + kPanelRows);
    im2col_rows(img, h, w, kh, kw, stride, pad, r0, r1, panel.data(),
                out_area);
    kernel(0, out_c, out_area, r1 - r0, 1.0f, weights + r0, col_rows,
           panel.data(), out_area, out, out_area);
  }
}

}  // namespace fedclust::tensor
