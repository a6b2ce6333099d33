#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/trace.h"

namespace fedclust::tensor {

std::size_t conv_out_dim(std::size_t in, std::size_t kernel,
                         std::size_t stride, std::size_t pad) {
  const std::size_t padded = in + 2 * pad;
  if (padded < kernel) {
    throw std::invalid_argument("conv_out_dim: kernel larger than input");
  }
  return (padded - kernel) / stride + 1;
}

namespace {

// Copies n floats. Rows of a small convolution are a few to a few dozen
// floats, where a memcpy call costs more than the copy itself: below 64
// floats the row is split by the bits of n into fixed-size copies, each of
// which compiles to plain vector moves.
inline void copy_floats(float* __restrict dst, const float* __restrict src,
                        std::size_t n) {
  if (n >= 64) {
    std::memcpy(dst, src, n * sizeof(float));
    return;
  }
  std::size_t o = 0;
  for (const std::size_t piece : {32, 16, 8, 4, 2, 1}) {
    if (n & piece) {
      std::memcpy(dst + o, src + o, piece * sizeof(float));
      o += piece;
    }
  }
}

// Planes [ch0, ch1) of a CHW image with `pad` zeros on every side, one
// (h + 2*pad, w + 2*pad) plane after another, in per-thread scratch. With
// pad == 0 the image itself is returned.
const float* padded_planes(const float* img, std::size_t ch0, std::size_t ch1,
                           std::size_t h, std::size_t w, std::size_t pad) {
  if (pad == 0) return img + ch0 * h * w;
  thread_local std::vector<float> buf;
  const std::size_t pw = w + 2 * pad;
  const std::size_t plane = (h + 2 * pad) * pw;
  buf.assign((ch1 - ch0) * plane, 0.0f);
  for (std::size_t ch = ch0; ch < ch1; ++ch) {
    for (std::size_t y = 0; y < h; ++y) {
      copy_floats(buf.data() + (ch - ch0) * plane + (y + pad) * pw + pad,
                  img + (ch * h + y) * w, w);
    }
  }
  return buf.data();
}

}  // namespace

void im2col_rows(const float* img, std::size_t h, std::size_t w,
                 std::size_t kh, std::size_t kw, std::size_t stride,
                 std::size_t pad, std::size_t row0, std::size_t row1,
                 float* col, std::size_t ld) {
  const std::size_t oh = conv_out_dim(h, kh, stride, pad);
  const std::size_t ow = conv_out_dim(w, kw, stride, pad);
  if (row0 >= row1) return;
  // Row r of the full column matrix corresponds to (channel, ky, kx);
  // column to (oy, ox). `col` receives rows [row0, row1), ld apart. Reading
  // from zero-padded planes makes every (row, oy) segment a plain strided
  // read with no bounds logic.
  const std::size_t ch0 = row0 / (kh * kw);
  const std::size_t ch1 = (row1 - 1) / (kh * kw) + 1;
  const std::size_t pw = w + 2 * pad;
  const std::size_t plane_size = (h + 2 * pad) * pw;
  const float* planes = padded_planes(img, ch0, ch1, h, w, pad);
  // (ch, ky, kx) of `row`, stepped incrementally: a 64-bit divide per row
  // costs more than the row's copies for small images.
  std::size_t ch = ch0;
  std::size_t ky = (row0 % (kh * kw)) / kw;
  std::size_t kx = row0 % kw;
  for (std::size_t row = row0; row < row1; ++row) {
    const float* plane = planes + (ch - ch0) * plane_size;
    float* out_row = col + (row - row0) * ld;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* src = plane + (oy * stride + ky) * pw + kx;
      float* dst = out_row + oy * ow;
      if (stride == 1) {
        copy_floats(dst, src, ow);
      } else {
        for (std::size_t ox = 0; ox < ow; ++ox) dst[ox] = src[ox * stride];
      }
    }
    if (++kx == kw) {
      kx = 0;
      if (++ky == kh) {
        ky = 0;
        ++ch;
      }
    }
  }
}

void im2col(const float* imgs, std::size_t n, std::size_t c, std::size_t h,
            std::size_t w, std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t pad, float* col) {
  OBS_SPAN("im2col");
  const std::size_t out_area =
      conv_out_dim(h, kh, stride, pad) * conv_out_dim(w, kw, stride, pad);
  for (std::size_t i = 0; i < n; ++i) {
    im2col_rows(imgs + i * c * h * w, h, w, kh, kw, stride, pad, 0,
                c * kh * kw, col + i * out_area, n * out_area);
  }
}

void col2im(const float* col, std::size_t n, std::size_t c, std::size_t h,
            std::size_t w, std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t pad, float* imgs) {
  OBS_SPAN("col2im");
  const std::size_t oh = conv_out_dim(h, kh, stride, pad);
  const std::size_t ow = conv_out_dim(w, kw, stride, pad);
  const std::size_t out_area = oh * ow;
  const std::size_t ld = n * out_area;
  const std::size_t pw = w + 2 * pad;
  // Each plane accumulates in a zeroed (h + 2*pad, w + 2*pad) target —
  // the image plane itself when pad == 0 — so every (row, oy) segment is
  // a plain strided add; contributions that land in the border are the
  // out-of-bounds taps and are dropped when the interior is copied out.
  // Every pixel sums its terms in (row, oy, ox) order starting from +0.0.
  thread_local std::vector<float> padded;
  if (pad != 0) padded.resize((h + 2 * pad) * pw);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t row = 0;
    for (std::size_t ch = 0; ch < c; ++ch) {
      float* plane = imgs + (i * c + ch) * h * w;
      float* target = pad != 0 ? padded.data() : plane;
      std::fill(target, target + (h + 2 * pad) * pw, 0.0f);
      for (std::size_t ky = 0; ky < kh; ++ky) {
        for (std::size_t kx = 0; kx < kw; ++kx, ++row) {
          const float* in_row = col + row * ld + i * out_area;
          for (std::size_t oy = 0; oy < oh; ++oy) {
            float* __restrict dst = target + (oy * stride + ky) * pw + kx;
            const float* __restrict src = in_row + oy * ow;
            if (stride == 1) {
              for (std::size_t ox = 0; ox < ow; ++ox) dst[ox] += src[ox];
            } else {
              for (std::size_t ox = 0; ox < ow; ++ox) {
                dst[ox * stride] += src[ox];
              }
            }
          }
        }
      }
      if (pad != 0) {
        for (std::size_t y = 0; y < h; ++y) {
          copy_floats(plane + y * w, target + (y + pad) * pw + pad, w);
        }
      }
    }
  }
}

}  // namespace fedclust::tensor
