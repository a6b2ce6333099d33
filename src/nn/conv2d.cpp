#include "nn/conv2d.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/trace.h"
#include "tensor/conv_fused.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"

namespace fedclust::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               std::string name)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      name_(std::move(name)),
      weight_(name_ + ".weight",
              Tensor({out_channels, in_channels * kernel * kernel})),
      bias_(name_ + ".bias", Tensor({out_channels})) {}

namespace {

// Per-thread staging buffer for the minibatch GEMM output (forward) and the
// gathered output gradient (backward): (out_c, N*OH*OW), the size of one
// activation tensor, reused across steps.
std::vector<float>& channel_major_scratch(std::size_t size) {
  thread_local std::vector<float> buf;
  buf.resize(size);
  return buf;
}

}  // namespace

Tensor Conv2d::forward(const Tensor& x, bool train) {
  OBS_SPAN("conv2d.forward");
  if (x.ndim() != 4 || x.dim(1) != in_c_) {
    throw std::invalid_argument(name_ + ": expected input (N, " +
                                std::to_string(in_c_) + ", H, W), got " +
                                x.shape_str());
  }
  const std::size_t n = x.dim(0);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = tensor::conv_out_dim(h, kernel_, stride_, pad_);
  const std::size_t ow = tensor::conv_out_dim(w, kernel_, stride_, pad_);
  const std::size_t col_rows = in_c_ * kernel_ * kernel_;
  const std::size_t out_area = oh * ow;
  Tensor y({n, out_c_, oh, ow});

  if (!train) {
    // Inference never needs the column matrix again: fuse im2col with the
    // GEMM so only a small panel is ever materialized (bit-identical to
    // the unfused path — see conv_fused.h).
    for (std::size_t i = 0; i < n; ++i) {
      float* out = y.data() + i * out_c_ * out_area;
      tensor::conv2d_forward_fused(x.data() + i * in_c_ * h * w, in_c_, h,
                                   w, weight_.value.data(), out_c_, kernel_,
                                   kernel_, stride_, pad_, out);
      for (std::size_t oc = 0; oc < out_c_; ++oc) {
        const float b = bias_.value[oc];
        float* plane = out + oc * out_area;
        for (std::size_t p = 0; p < out_area; ++p) plane[p] += b;
      }
    }
    return y;
  }

  // Training lowers the whole minibatch at once: one im2col into
  // (col_rows, N*OH*OW), kept for backward's dW GEMM, and one GEMM
  // out(out_c, N*OH*OW) = W(out_c, col_rows) x cols. Every output element
  // reduces over the same col_rows terms in the same order as a per-image
  // GEMM would, so batching is bit-exact.
  const std::size_t cols_n = n * out_area;
  if (cached_cols_.size() != col_rows * cols_n) {
    cached_cols_ = Tensor({col_rows, cols_n});
  }
  tensor::im2col(x.data(), n, in_c_, h, w, kernel_, kernel_, stride_, pad_,
                 cached_cols_.data());
  std::vector<float>& out = channel_major_scratch(out_c_ * cols_n);
  tensor::gemm(tensor::Trans::kNo, tensor::Trans::kNo, out_c_, cols_n,
               col_rows, 1.0f, weight_.value.data(), col_rows,
               cached_cols_.data(), cols_n, 0.0f, out.data(), cols_n);
  // Channel-major GEMM output -> NCHW, adding the bias on the way.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float b = bias_.value[oc];
      const float* src = out.data() + oc * cols_n + i * out_area;
      float* dst = y.data() + (i * out_c_ + oc) * out_area;
      for (std::size_t p = 0; p < out_area; ++p) dst[p] = src[p] + b;
    }
  }
  cached_n_ = n;
  cached_h_ = h;
  cached_w_ = w;
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  OBS_SPAN("conv2d.backward");
  if (cached_n_ == 0 || grad_out.ndim() != 4 || grad_out.dim(0) != cached_n_ ||
      grad_out.dim(1) != out_c_) {
    throw std::logic_error(name_ + ": backward without matching forward");
  }
  const std::size_t n = cached_n_;
  const std::size_t h = cached_h_;
  const std::size_t w = cached_w_;
  const std::size_t out_area = grad_out.dim(2) * grad_out.dim(3);
  const std::size_t col_rows = in_c_ * kernel_ * kernel_;
  const std::size_t cols_n = n * out_area;
  float* cols = cached_cols_.data();

  // Gather gy into channel-major (out_c, N*OH*OW); db += each image's
  // spatial sums, in double, image by image.
  std::vector<float>& gy = channel_major_scratch(out_c_ * cols_n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float* plane = grad_out.data() + (i * out_c_ + oc) * out_area;
      std::copy(plane, plane + out_area,
                gy.data() + oc * cols_n + i * out_area);
      double s = 0.0;
      for (std::size_t p = 0; p < out_area; ++p) s += plane[p];
      bias_.grad[oc] += static_cast<float>(s);
    }
  }
  // dW += gy(out_c, N*OH*OW) x cols^T: one reduction over the minibatch's
  // output positions in image order — the same sequence per element as
  // accumulating one image at a time.
  tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, out_c_, col_rows,
               cols_n, 1.0f, gy.data(), cols_n, cols, cols_n, 1.0f,
               weight_.grad.data(), col_rows);
  // dcol = W^T(col_rows, out_c) x gy, written over the column matrix (dW was
  // its last reader), then scattered back image by image.
  tensor::gemm(tensor::Trans::kYes, tensor::Trans::kNo, col_rows, cols_n,
               out_c_, 1.0f, weight_.value.data(), col_rows, gy.data(),
               cols_n, 0.0f, cols, cols_n);
  cached_n_ = 0;
  Tensor grad_in({n, in_c_, h, w});
  tensor::col2im(cols, n, in_c_, h, w, kernel_, kernel_, stride_, pad_,
                 grad_in.data());
  return grad_in;
}

}  // namespace fedclust::nn
