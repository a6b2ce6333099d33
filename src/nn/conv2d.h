#pragma once

// 2-D convolution over NCHW tensors, lowered to GEMM via im2col: training
// runs one im2col and one GEMM per pass over the whole minibatch;
// inference runs the fused per-image panel path (tensor/conv_fused.h).

#include "nn/module.h"

namespace fedclust::nn {

class Conv2d : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride = 1, std::size_t pad = 0,
         std::string name = "conv");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return name_; }

  std::size_t in_channels() const { return in_c_; }
  std::size_t out_channels() const { return out_c_; }
  std::size_t kernel() const { return kernel_; }

  Parameter& weight() { return weight_; }

 private:
  std::size_t in_c_;
  std::size_t out_c_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t pad_;
  std::string name_;
  Parameter weight_;  // (out_c, in_c * k * k)
  Parameter bias_;    // (out_c)

  // Forward caches for backward: the minibatch column matrix and the input
  // geometry. Backward overwrites the columns with dcol, so one forward
  // feeds exactly one backward.
  Tensor cached_cols_;  // (in_c*k*k, N*OH*OW)
  std::size_t cached_n_ = 0;
  std::size_t cached_h_ = 0;
  std::size_t cached_w_ = 0;
};

}  // namespace fedclust::nn
