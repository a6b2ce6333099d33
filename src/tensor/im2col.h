#pragma once

// im2col / col2im lowering, turning 2-D convolution into GEMM.
//
// Layouts: images are CHW; the column matrix is (C*kh*kw, OH*OW) row-major,
// so conv forward is W_mat(out_c, C*kh*kw) x col = out(out_c, OH*OW).

#include <cstddef>

namespace fedclust::tensor {

std::size_t conv_out_dim(std::size_t in, std::size_t kernel,
                         std::size_t stride, std::size_t pad);

// Expands a batch of n CHW images (NCHW, contiguous) into one column matrix
// of shape (C*kh*kw, n*OH*OW): image i owns columns [i*OH*OW, (i+1)*OH*OW)
// of every row (zero padding).
void im2col(const float* imgs, std::size_t n, std::size_t c, std::size_t h,
            std::size_t w, std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t pad, float* col);

// Expands only rows [row0, row1) of one CHW image's column matrix into
// `col`, row r - row0 starting at col + (r - row0) * ld (ld >= OH*OW). Row
// r corresponds to (channel, ky, kx) = (r / (kh*kw), (r % (kh*kw)) / kw,
// r % kw), so the rows also say which channels are read. This is the panel
// primitive behind the fused im2col+GEMM convolution (the full matrix
// never has to be materialized at once) and the per-image step of the
// batched im2col.
void im2col_rows(const float* img, std::size_t h, std::size_t w,
                 std::size_t kh, std::size_t kw, std::size_t stride,
                 std::size_t pad, std::size_t row0, std::size_t row1,
                 float* col, std::size_t ld);

// Adjoint of im2col: writes into n CHW images the sum, over every patch
// that covers a pixel, of that patch's column entry — overlapping patches
// accumulate, which is exactly the gradient of im2col. `imgs` is
// overwritten.
void col2im(const float* col, std::size_t n, std::size_t c, std::size_t h,
            std::size_t w, std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t pad, float* imgs);

}  // namespace fedclust::tensor
