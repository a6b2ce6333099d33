#pragma once

// Elementwise activation layers.

#include <cstdint>

#include "nn/module.h"

namespace fedclust::nn {

class ReLU : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "relu"; }

 private:
  // 1 where the input was positive; reused as the backward mask.
  std::vector<std::uint8_t> mask_;
  tensor::Shape cached_shape_;
};

class Tanh : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "tanh"; }

 private:
  Tensor cached_output_;
};

}  // namespace fedclust::nn
