#include "clustering/distance.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "tensor/simd.h"
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

namespace {

// Columns per packed block: one full slab (8 x 4 double lanes) of the AVX2
// l2_distances kernel, which the AVX-512 table shares.
constexpr std::size_t kL2Block = 32;

}  // namespace

tensor::Tensor l2_distance_matrix(
    const std::vector<std::vector<float>>& vectors) {
  const std::size_t n = vectors.size();
  const std::size_t dim = n > 0 ? vectors[0].size() : 0;
  for (const auto& v : vectors) {
    if (v.size() != dim) {
      throw std::invalid_argument("l2_distance: size mismatch");
    }
  }
  tensor::Tensor d({n, n});
  const auto& kt = tensor::simd::kernels();
  const std::size_t nb = (n + kL2Block - 1) / kL2Block;
  // Block b holds columns [c0, c1) interleaved (element k of column c0 + t
  // at pack[k * w + t]) and pairs every row i < c1 - 1 with the columns
  // j > i of the block, so each pair i < j is computed exactly once.
  const auto fill_block = [&](std::size_t b, std::vector<float>& pack) {
    const std::size_t c0 = b * kL2Block;
    const std::size_t c1 = std::min(n, c0 + kL2Block);
    const std::size_t w = c1 - c0;
    pack.resize(dim * w);
    for (std::size_t t = 0; t < w; ++t) {
      const float* v = vectors[c0 + t].data();
      for (std::size_t k = 0; k < dim; ++k) pack[k * w + t] = v[k];
    }
    for (std::size_t i = 0; i + 1 < c1; ++i) {
      const std::size_t j0 = std::max(c0, i + 1);
      kt.l2_distances(vectors[i].data(), pack.data() + (j0 - c0), dim,
                      c1 - j0, w, &d[i * n + j0]);
      for (std::size_t j = j0; j < c1; ++j) d[j * n + i] = d[i * n + j];
    }
  };
  // Block b costs ~c1 rows, so task k owns blocks k and nb-1-k: equal work
  // per task, as in distance_matrix.
  util::parallel_for_chunked(0, (nb + 1) / 2, [&](std::size_t t0,
                                                 std::size_t t1) {
    std::vector<float> pack;
    for (std::size_t k = t0; k < t1; ++k) {
      fill_block(k, pack);
      if (nb - 1 - k != k) fill_block(nb - 1 - k, pack);
    }
  });
  return d;
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
  }
  // Pairs i < j in 64 x 64 tiles, so the mirror entries d[j * n + i] of a
  // tile stay in cache while its rows are read.
  constexpr std::size_t kTile = 64;
  for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
    const std::size_t i1 = std::min(n, i0 + kTile);
    for (std::size_t j0 = i0; j0 < n; j0 += kTile) {
      const std::size_t j1 = std::min(n, j0 + kTile);
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = std::max(j0, i + 1); j < j1; ++j) {
          const float upper = d[i * n + j];
          const float lower = d[j * n + i];
          if (!(upper >= 0.0f) || !(lower >= 0.0f)) {
            throw std::invalid_argument(
                "distance matrix entries must be >= 0");
          }
          if (upper != lower) {
            throw std::invalid_argument("distance matrix must be symmetric");
          }
        }
      }
    }
  }
}

}  // namespace fedclust::clustering
