#include "nn/pooling.h"

#include <limits>
#include <stdexcept>

#include "tensor/im2col.h"

namespace fedclust::nn {

namespace {

void check_nchw(const Tensor& x, const char* who) {
  if (x.ndim() != 4) {
    throw std::invalid_argument(std::string(who) + ": expected NCHW input, got " +
                                x.shape_str());
  }
}

// One output row of 2x2 / stride-2 windows whose top taps start at `top`
// (flat input index top_flat). Each tap pair is scanned from -inf and the
// bottom pair takes over only when strictly greater: the same first maximum
// as the row-major scan. The winner is a tap code (bit 0: right, bit 1:
// bottom) and a window whose max stayed -inf maps to index 0; every select
// is arithmetic, so the row vectorizes.
template <bool kArgmax>
void max2x2_row(const float* top, std::size_t w, std::size_t ow,
                std::size_t top_flat, float* y, std::size_t* arg) {
  const float ninf = -std::numeric_limits<float>::infinity();
  for (std::size_t ox = 0; ox < ow; ++ox) {
    const float* t = top + 2 * ox;
    const float* b = t + w;
    float hi = t[0] > ninf ? t[0] : ninf;
    const auto hi_at = static_cast<std::size_t>(t[1] > hi);
    hi = t[1] > hi ? t[1] : hi;
    float lo = b[0] > ninf ? b[0] : ninf;
    const std::size_t lo_at = 2 + static_cast<std::size_t>(b[1] > lo);
    lo = b[1] > lo ? b[1] : lo;
    const bool low_wins = lo > hi;
    const float best = low_wins ? lo : hi;
    y[ox] = best;
    if constexpr (kArgmax) {
      const std::size_t pick =
          std::size_t{0} - static_cast<std::size_t>(low_wins);
      const std::size_t at = hi_at ^ ((hi_at ^ lo_at) & pick);
      const std::size_t found =
          std::size_t{0} - static_cast<std::size_t>(best > ninf);
      arg[ox] = (top_flat + 2 * ox + (at & 1) + (at >> 1) * w) & found;
    }
  }
}

}  // namespace

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {}

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  check_nchw(x, "maxpool");
  const std::size_t n = x.dim(0);
  const std::size_t c = x.dim(1);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = tensor::conv_out_dim(h, kernel_, stride_, 0);
  const std::size_t ow = tensor::conv_out_dim(w, kernel_, stride_, 0);

  Tensor y({n, c, oh, ow});
  if (train) argmax_.assign(y.size(), 0);

  const bool k2s2 = kernel_ == 2 && stride_ == 2;
  for (std::size_t pl = 0; pl < n * c; ++pl) {
    const std::size_t plane_off = pl * h * w;
    const float* plane = x.data() + plane_off;
    const std::size_t out_off = pl * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const std::size_t row_off = oy * stride_ * w;
      float* y_row = y.data() + out_off + oy * ow;
      std::size_t* arg_row = train ? argmax_.data() + out_off + oy * ow
                                   : nullptr;
      if (k2s2) {
        if (train) {
          max2x2_row<true>(plane + row_off, w, ow, plane_off + row_off,
                           y_row, arg_row);
        } else {
          max2x2_row<false>(plane + row_off, w, ow, plane_off + row_off,
                            y_row, nullptr);
        }
        continue;
      }
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t ky = 0; ky < kernel_; ++ky) {
          for (std::size_t kx = 0; kx < kernel_; ++kx) {
            const std::size_t in = row_off + ky * w + ox * stride_ + kx;
            const float v = plane[in];
            if (v > best) {
              best = v;
              best_idx = plane_off + in;
            }
          }
        }
        y_row[ox] = best;
        if (train) arg_row[ox] = best_idx;
      }
    }
  }
  if (train) {
    cached_in_shape_ = x.shape();
    cached_out_shape_ = y.shape();
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  if (argmax_.empty() || grad_out.shape() != cached_out_shape_) {
    throw std::logic_error("maxpool: backward without matching forward");
  }
  Tensor grad_in(cached_in_shape_);
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_in[argmax_[i]] += grad_out[i];
  }
  return grad_in;
}

AvgPool2d::AvgPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {}

Tensor AvgPool2d::forward(const Tensor& x, bool train) {
  check_nchw(x, "avgpool");
  const std::size_t n = x.dim(0);
  const std::size_t c = x.dim(1);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = tensor::conv_out_dim(h, kernel_, stride_, 0);
  const std::size_t ow = tensor::conv_out_dim(w, kernel_, stride_, 0);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);

  Tensor y({n, c, oh, ow});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (i * c + ch) * h * w;
      float* out = y.data() + (i * c + ch) * oh * ow;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float s = 0.0f;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              s += plane[(oy * stride_ + ky) * w + ox * stride_ + kx];
            }
          }
          out[oy * ow + ox] = s * inv;
        }
      }
    }
  }
  if (train) cached_in_shape_ = x.shape();
  return y;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  if (cached_in_shape_.empty()) {
    throw std::logic_error("avgpool: backward without matching forward");
  }
  const std::size_t n = cached_in_shape_[0];
  const std::size_t c = cached_in_shape_[1];
  const std::size_t h = cached_in_shape_[2];
  const std::size_t w = cached_in_shape_[3];
  const std::size_t oh = grad_out.dim(2);
  const std::size_t ow = grad_out.dim(3);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);

  Tensor grad_in(cached_in_shape_);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      float* plane = grad_in.data() + (i * c + ch) * h * w;
      const float* gy = grad_out.data() + (i * c + ch) * oh * ow;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float g = gy[oy * ow + ox] * inv;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              plane[(oy * stride_ + ky) * w + ox * stride_ + kx] += g;
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor GlobalAvgPool2d::forward(const Tensor& x, bool train) {
  check_nchw(x, "gap");
  const std::size_t n = x.dim(0);
  const std::size_t c = x.dim(1);
  const std::size_t area = x.dim(2) * x.dim(3);
  const float inv = 1.0f / static_cast<float>(area);
  Tensor y({n, c});
  for (std::size_t i = 0; i < n * c; ++i) {
    const float* plane = x.data() + i * area;
    double s = 0.0;
    for (std::size_t p = 0; p < area; ++p) s += plane[p];
    y[i] = static_cast<float>(s) * inv;
  }
  if (train) cached_in_shape_ = x.shape();
  return y;
}

Tensor GlobalAvgPool2d::backward(const Tensor& grad_out) {
  if (cached_in_shape_.empty()) {
    throw std::logic_error("gap: backward without matching forward");
  }
  const std::size_t area = cached_in_shape_[2] * cached_in_shape_[3];
  const float inv = 1.0f / static_cast<float>(area);
  Tensor grad_in(cached_in_shape_);
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    const float g = grad_out[i] * inv;
    float* plane = grad_in.data() + i * area;
    for (std::size_t p = 0; p < area; ++p) plane[p] = g;
  }
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x, bool train) {
  if (x.ndim() < 2) {
    throw std::invalid_argument("flatten: expected at least 2-D input");
  }
  if (train) cached_in_shape_ = x.shape();
  Tensor y = x;
  y.reshape({x.dim(0), x.size() / x.dim(0)});
  return y;
}

Tensor Flatten::backward(const Tensor& grad_out) {
  if (cached_in_shape_.empty()) {
    throw std::logic_error("flatten: backward without matching forward");
  }
  Tensor g = grad_out;
  g.reshape(cached_in_shape_);
  return g;
}

}  // namespace fedclust::nn
