#include "clustering/distance.h"

#include <cmath>
#include <stdexcept>

#include "tensor/tensor_ops.h"
#include "util/thread_pool.h"

namespace fedclust::clustering {

tensor::Tensor distance_matrix(
    std::size_t n,
    const std::function<float(std::size_t, std::size_t)>& dist) {
  tensor::Tensor d({n, n});
  const auto fill_row = [&](std::size_t i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const float v = dist(i, j);
      d[i * n + j] = v;
      d[j * n + i] = v;
    }
  };
  // Task k owns rows k and n-1-k: n-1 pairs each, so contiguous chunks of
  // tasks carry equal work.
  util::parallel_for(0, (n + 1) / 2, [&](std::size_t k) {
    fill_row(k);
    if (n - 1 - k != k) fill_row(n - 1 - k);
  });
  return d;
}

tensor::Tensor l2_distance_matrix(
    const std::vector<std::vector<float>>& vectors) {
  return distance_matrix(vectors.size(), [&](std::size_t i, std::size_t j) {
    return tensor::l2_distance(vectors[i], vectors[j]);
  });
}

tensor::Tensor cosine_distance_matrix(
    const std::vector<std::vector<float>>& vectors) {
  return distance_matrix(vectors.size(), [&](std::size_t i, std::size_t j) {
    return 1.0f - tensor::cosine_similarity(vectors[i], vectors[j]);
  });
}

void validate_distance_matrix(const tensor::Tensor& d) {
  if (d.ndim() != 2 || d.dim(0) != d.dim(1)) {
    throw std::invalid_argument("distance matrix must be square");
  }
  const std::size_t n = d.dim(0);
  for (std::size_t i = 0; i < n; ++i) {
    if (d[i * n + i] != 0.0f) {
      throw std::invalid_argument("distance matrix diagonal must be zero");
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (d[i * n + j] < 0.0f || std::isnan(d[i * n + j])) {
        throw std::invalid_argument("distance matrix entries must be >= 0");
      }
      if (d[i * n + j] != d[j * n + i]) {
        throw std::invalid_argument("distance matrix must be symmetric");
      }
    }
  }
}

}  // namespace fedclust::clustering
