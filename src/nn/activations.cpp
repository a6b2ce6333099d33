#include "nn/activations.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace fedclust::nn {

Tensor ReLU::forward(const Tensor& x, bool train) {
  const std::size_t n = x.size();
  Tensor y(x.shape());
  const float* src = x.data();
  float* dst = y.data();
  // x > 0 is false for -0.0 and NaN, so both come out as +0.0. Selects,
  // not branches: the sign of real activations is a coin flip.
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
  if (train) {
    mask_.resize(n);
    std::uint8_t* mask = mask_.data();
    for (std::size_t i = 0; i < n; ++i) {
      mask[i] = static_cast<std::uint8_t>(src[i] > 0.0f);
    }
    cached_shape_ = x.shape();
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (mask_.size() != grad_out.size() || grad_out.shape() != cached_shape_) {
    throw std::logic_error("relu: backward without matching forward");
  }
  const std::size_t n = grad_out.size();
  Tensor g(grad_out.shape());
  const float* src = grad_out.data();
  float* dst = g.data();
  // Masked lanes become +0.0 by clearing every bit; kept lanes pass through
  // bit for bit (-0.0 and NaN payloads included).
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t keep = 0u - static_cast<std::uint32_t>(mask_[i]);
    dst[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(src[i]) & keep);
  }
  return g;
}

Tensor Tanh::forward(const Tensor& x, bool train) {
  Tensor y = x;
  for (auto& v : y.vec()) v = std::tanh(v);
  if (train) cached_output_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  if (cached_output_.shape() != grad_out.shape()) {
    throw std::logic_error("tanh: backward without matching forward");
  }
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const float t = cached_output_[i];
    g[i] *= 1.0f - t * t;
  }
  return g;
}

}  // namespace fedclust::nn
