#pragma once

// Pairwise proximity matrices. FedClust's server builds an m x m matrix of
// L2 distances between the clients' uploaded final-layer weights (Eq. 3 of
// the paper); cosine distance serves the CFL baseline.

#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace fedclust::clustering {

// Symmetric (n, n) matrix with zero diagonal from a pairwise callback.
// dist(i, j) is called exactly once per pair i < j, from the global thread
// pool, so it must be safe to call concurrently (a pure function of its
// arguments). Which thread computes a pair never changes its value, so the
// matrix is bit-identical at any FEDCLUST_THREADS.
tensor::Tensor distance_matrix(
    std::size_t n,
    const std::function<float(std::size_t, std::size_t)>& dist);

// ||v_p - v_q||_2 over a set of equal-length vectors (throws
// std::invalid_argument if lengths differ); every entry is bit-equal to
// tensor::l2_distance on its pair, at any FEDCLUST_THREADS and ISA. Cost:
// n²/2 pairs of dim double operations, spread over the pool (one task per
// pair of 32-column blocks) and the SIMD lanes (one lane per pair, via the
// kernel table's l2_distances). Extra memory: one packed dim x 32 float
// block per task.
tensor::Tensor l2_distance_matrix(
    const std::vector<std::vector<float>>& vectors);

// 1 - cosine_similarity.
tensor::Tensor cosine_distance_matrix(
    const std::vector<std::vector<float>>& vectors);

// Validates square shape, zero diagonal, entries >= 0 (no NaN) and
// symmetry; throws std::invalid_argument otherwise. Checks in 64 x 64 tiles
// so an entry and its mirror are read from cache.
void validate_distance_matrix(const tensor::Tensor& d);

}  // namespace fedclust::clustering
