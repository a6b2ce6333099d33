#include "nn/linear.h"

#include <stdexcept>
#include <vector>

#include "tensor/gemm.h"

namespace fedclust::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features,
               std::string name)
    : in_(in_features),
      out_(out_features),
      name_(std::move(name)),
      weight_(name_ + ".weight", Tensor({out_features, in_features})),
      bias_(name_ + ".bias", Tensor({out_features})) {}

Tensor Linear::forward(const Tensor& x, bool train) {
  if (x.ndim() != 2 || x.dim(1) != in_) {
    throw std::invalid_argument(name_ + ": expected input (N, " +
                                std::to_string(in_) + "), got " +
                                x.shape_str());
  }
  const std::size_t n = x.dim(0);
  // y^T (out, N) = W (out, in) x x^T (in, N): only the N x in activations
  // are transposed, never the weight. Exact: alpha == 1, and every element
  // sums fl(W[j,p] * x[i,p]) = fl(x[i,p] * W[j,p]) in ascending p, just as
  // x W^T would.
  thread_local std::vector<float> yt;
  yt.resize(out_ * n);
  tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, out_, n, in_, 1.0f,
               weight_.value.data(), in_, x.data(), in_, 0.0f, yt.data(), n);
  Tensor y({n, out_});
  for (std::size_t j = 0; j < out_; ++j) {
    const float b = bias_.value[j];
    const float* src = yt.data() + j * n;
    for (std::size_t i = 0; i < n; ++i) y[i * out_ + j] = src[i] + b;
  }
  if (train) cached_input_ = x;
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  const std::size_t n = grad_out.dim(0);
  if (cached_input_.empty() || grad_out.dim(1) != out_ ||
      cached_input_.dim(0) != n) {
    throw std::logic_error(name_ + ": backward without matching forward");
  }
  // dW += gy^T x : (out, N) x (N, in)
  tensor::gemm(tensor::Trans::kYes, tensor::Trans::kNo, out_, in_, n, 1.0f,
               grad_out.data(), out_, cached_input_.data(), in_, 1.0f,
               weight_.grad.data(), in_);
  // db += column sums of gy
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = grad_out.data() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) bias_.grad[j] += row[j];
  }
  // dx = gy W : (N, out) x (out, in)
  return tensor::matmul(grad_out, tensor::Trans::kNo, weight_.value,
                        tensor::Trans::kNo);
}

}  // namespace fedclust::nn
