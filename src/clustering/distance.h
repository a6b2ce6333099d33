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

// ||v_p - v_q||_2 over a set of equal-length vectors.
tensor::Tensor l2_distance_matrix(
    const std::vector<std::vector<float>>& vectors);

// 1 - cosine_similarity.
tensor::Tensor cosine_distance_matrix(
    const std::vector<std::vector<float>>& vectors);

// Validates symmetry / zero diagonal / non-negativity; throws otherwise.
void validate_distance_matrix(const tensor::Tensor& d);

}  // namespace fedclust::clustering
