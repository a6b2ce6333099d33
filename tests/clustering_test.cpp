#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "clustering/metrics.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedclust::clustering {
namespace {

using tensor::Tensor;

// --------------------------------------------------------------- distance

TEST(Distance, L2Matrix) {
  const std::vector<std::vector<float>> v = {{0, 0}, {3, 4}, {0, 1}};
  const Tensor d = l2_distance_matrix(v);
  EXPECT_FLOAT_EQ(d.at({0, 1}), 5.0f);
  EXPECT_FLOAT_EQ(d.at({1, 0}), 5.0f);
  EXPECT_FLOAT_EQ(d.at({0, 2}), 1.0f);
  EXPECT_FLOAT_EQ(d.at({0, 0}), 0.0f);
  validate_distance_matrix(d);
}

TEST(Distance, CosineMatrix) {
  const std::vector<std::vector<float>> v = {{1, 0}, {0, 1}, {2, 0}};
  const Tensor d = cosine_distance_matrix(v);
  EXPECT_NEAR(d.at({0, 1}), 1.0f, 1e-6);
  EXPECT_NEAR(d.at({0, 2}), 0.0f, 1e-6);
}

TEST(Distance, ValidationCatchesBadMatrices) {
  Tensor asym({2, 2}, {0, 1, 2, 0});
  EXPECT_THROW(validate_distance_matrix(asym), std::invalid_argument);
  Tensor diag({2, 2}, {1, 0, 0, 0});
  EXPECT_THROW(validate_distance_matrix(diag), std::invalid_argument);
  Tensor neg({2, 2}, {0, -1, -1, 0});
  EXPECT_THROW(validate_distance_matrix(neg), std::invalid_argument);
  EXPECT_THROW(validate_distance_matrix(Tensor({2, 3})),
               std::invalid_argument);
}

// Every rejection at a tile edge (validation tiles are 64 wide), inside
// the ragged last tile (rows 128..129 of n = 130) and at the far corner
// (0, n-1), for pairs (i, j) with i < j. The message names the check that
// fired where only one check applies.
TEST(Distance, ValidationRejectsAtTileEdges) {
  constexpr std::size_t n = 130;
  util::Rng rng(8);
  std::vector<std::vector<float>> pts(n, std::vector<float>(3));
  for (auto& p : pts) {
    for (auto& x : p) x = rng.normalf(0, 1);
  }
  const Tensor good = l2_distance_matrix(pts);
  validate_distance_matrix(good);
  const auto expect_rejected = [&](const Tensor& d, const char* what) {
    try {
      validate_distance_matrix(d);
      ADD_FAILURE() << "accepted: " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::pair<std::size_t, std::size_t> pairs[] = {
      {0, 1},    {62, 63},  {63, 64},  {64, 65},   {0, 64},
      {63, 127}, {64, 127}, {127, 128}, {128, 129}, {0, n - 1}};
  for (const auto& [i, j] : pairs) {
    SCOPED_TRACE(testing::Message() << "(" << i << ", " << j << ")");
    Tensor d = good;
    d[i * n + j] = d[j * n + i] = -1.0f;
    expect_rejected(d, ">= 0");
    d = good;
    d[i * n + j] = d[j * n + i] = nan;
    expect_rejected(d, ">= 0");
    d = good;
    d[i * n + j] += 1.0f;
    expect_rejected(d, "symmetric");
    d = good;
    d[j * n + i] += 1.0f;
    expect_rejected(d, "symmetric");
    // One-sided sign defects are caught whichever side holds them.
    d = good;
    d[j * n + i] = -d[j * n + i];
    expect_rejected(d, "");
    d = good;
    d[i * n + j] = nan;
    expect_rejected(d, "");
  }
  for (const std::size_t i : {0u, 63u, 64u, 127u, 128u, 129u}) {
    Tensor d = good;
    d[i * n + i] = 0.5f;
    expect_rejected(d, "diagonal");
  }
}

// distance_matrix fans its pairs out over the global pool; the matrix must
// not depend on the worker count. The fixture restores the previous pool.
class DistanceThreads : public ::testing::Test {
 protected:
  void SetUp() override { prev_threads_ = util::global_pool().size() + 1; }
  void TearDown() override { util::reset_global_pool(prev_threads_); }

 private:
  std::size_t prev_threads_ = 1;
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST_F(DistanceThreads, BitIdenticalAtOneAndFourThreads) {
  // Odd and even n: the middle row of an odd n is paired with itself.
  for (const std::size_t n : {1u, 2u, 37u, 64u}) {
    util::Rng rng(29 + n);
    std::vector<std::vector<float>> v(n, std::vector<float>(50));
    for (auto& row : v) {
      for (auto& x : row) x = rng.normalf(0, 1);
    }
    const auto custom = [&](std::size_t i, std::size_t j) {
      return std::abs(v[i][0] - v[j][0]) + 0.5f * std::abs(v[i][1] - v[j][1]);
    };
    std::vector<Tensor> l2, cos, cust;
    for (const std::size_t threads : {1u, 4u}) {
      util::reset_global_pool(threads);
      l2.push_back(l2_distance_matrix(v));
      cos.push_back(cosine_distance_matrix(v));
      cust.push_back(distance_matrix(n, custom));
    }
    EXPECT_TRUE(same_bits(l2[0], l2[1])) << "l2, n=" << n;
    EXPECT_TRUE(same_bits(cos[0], cos[1])) << "cosine, n=" << n;
    EXPECT_TRUE(same_bits(cust[0], cust[1])) << "callback, n=" << n;
    validate_distance_matrix(l2[1]);
    validate_distance_matrix(cust[1]);
  }
}

// The packed-block L2 matrix is bit-equal to per-pair tensor::l2_distance
// for every n up to 70 (ragged and full 32-column blocks, odd and even
// block counts), 100 and 2000, at four threads, with a few entries of
// 1e30 among the N(0, 1) values.
TEST_F(DistanceThreads, L2MatrixMatchesPerPairOracle) {
  util::reset_global_pool(4);
  std::vector<std::size_t> sizes(70);
  std::iota(sizes.begin(), sizes.end(), std::size_t{1});
  sizes.push_back(100);
  sizes.push_back(2000);
  for (const std::size_t n : sizes) {
    const std::size_t dim = n == 100 ? 850 : n == 2000 ? 40 : 1 + n % 9;
    util::Rng rng(61 + n);
    std::vector<std::vector<float>> v(n, std::vector<float>(dim));
    for (auto& row : v) {
      for (auto& x : row) x = rng.normalf(0, 1);
      if (rng.uniform() < 0.05) row[rng.randint(0, dim)] = 1e30f;
    }
    const Tensor d = l2_distance_matrix(v);
    Tensor want({n, n});
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        want[i * n + j] = want[j * n + i] = tensor::l2_distance(v[i], v[j]);
      }
    }
    ASSERT_TRUE(same_bits(d, want)) << "n=" << n << " dim=" << dim;
  }
}

TEST(Distance, L2MatrixRejectsRaggedVectors) {
  EXPECT_THROW(l2_distance_matrix({{1.0f, 2.0f}, {1.0f}}),
               std::invalid_argument);
  EXPECT_NO_THROW(l2_distance_matrix({{1.0f, 2.0f, 3.0f}}));
}

TEST_F(DistanceThreads, CallsEachPairExactlyOnce) {
  util::reset_global_pool(4);
  for (const std::size_t n : {40u, 41u}) {
    std::vector<std::atomic<int>> calls(n * n);
    const Tensor d = distance_matrix(n, [&](std::size_t i, std::size_t j) {
      calls[i * n + j].fetch_add(1);
      return static_cast<float>(i + j);
    });
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(calls[i * n + j].load(), i < j ? 1 : 0)
            << "pair (" << i << ", " << j << "), n=" << n;
        ASSERT_EQ(d[i * n + j], i == j ? 0.0f : static_cast<float>(i + j));
      }
    }
  }
}

// ---------------------------------------------------------------- linkage

TEST(Linkage, FromString) {
  EXPECT_EQ(linkage_from_string("single"), Linkage::kSingle);
  EXPECT_EQ(linkage_from_string("ward"), Linkage::kWard);
  EXPECT_THROW(linkage_from_string("centroid"), std::invalid_argument);
}

// ----------------------------------------------------------- hierarchical

// Four 1-D points in two obvious pairs: {0, 0.1} and {10, 10.1}.
Tensor two_pair_matrix() {
  const std::vector<std::vector<float>> v = {{0.0f}, {0.1f}, {10.0f},
                                             {10.1f}};
  return l2_distance_matrix(v);
}

TEST(Hierarchical, MergeOrderOnTwoPairs) {
  const Dendrogram d = agglomerative(two_pair_matrix(), Linkage::kAverage);
  EXPECT_EQ(d.n_leaves, 4u);
  ASSERT_EQ(d.merges.size(), 3u);
  // The two cheap merges come first, the expensive bridge last.
  EXPECT_NEAR(d.merges[0].distance, 0.1f, 1e-5);
  EXPECT_NEAR(d.merges[1].distance, 0.1f, 1e-5);
  EXPECT_GT(d.merges[2].distance, 5.0f);
}

TEST(Hierarchical, ThresholdCutSeparatesPairs) {
  const Dendrogram d = agglomerative(two_pair_matrix(), Linkage::kAverage);
  const auto labels = cut_by_threshold(d, 1.0f);
  EXPECT_EQ(num_clusters(labels), 2u);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
}

TEST(Hierarchical, ThresholdExtremes) {
  const Dendrogram d = agglomerative(two_pair_matrix(), Linkage::kAverage);
  // λ below every merge distance: all singletons (pure personalization).
  EXPECT_EQ(num_clusters(cut_by_threshold(d, 0.01f)), 4u);
  // λ above every merge distance: one cluster (pure globalization).
  EXPECT_EQ(num_clusters(cut_by_threshold(d, 100.0f)), 1u);
}

TEST(Hierarchical, CutToK) {
  const Dendrogram d = agglomerative(two_pair_matrix(), Linkage::kAverage);
  EXPECT_EQ(num_clusters(cut_to_k(d, 1)), 1u);
  EXPECT_EQ(num_clusters(cut_to_k(d, 2)), 2u);
  EXPECT_EQ(num_clusters(cut_to_k(d, 3)), 3u);
  EXPECT_EQ(num_clusters(cut_to_k(d, 4)), 4u);
  EXPECT_EQ(num_clusters(cut_to_k(d, 99)), 4u);  // clamped
  const auto two = cut_to_k(d, 2);
  EXPECT_EQ(two[0], two[1]);
  EXPECT_NE(two[0], two[2]);
}

TEST(Hierarchical, TrivialInputs) {
  const Dendrogram d0 = agglomerative(Tensor({0, 0}));
  EXPECT_TRUE(d0.merges.empty());
  const Dendrogram d1 = agglomerative(Tensor({1, 1}));
  EXPECT_TRUE(d1.merges.empty());
  EXPECT_EQ(cut_by_threshold(d1, 1.0f), (std::vector<std::size_t>{0}));
}

TEST(Hierarchical, SingleVsCompleteOnChain) {
  // A chain 0-1-2-3 with unit gaps: single linkage chains everything at
  // distance 1, complete linkage does not.
  const std::vector<std::vector<float>> v = {{0.0f}, {1.0f}, {2.0f}, {3.0f}};
  const Tensor d = l2_distance_matrix(v);
  const auto single = cluster_by_threshold(d, 1.0f, Linkage::kSingle);
  EXPECT_EQ(num_clusters(single), 1u);
  const auto complete = cluster_by_threshold(d, 1.0f, Linkage::kComplete);
  EXPECT_GT(num_clusters(complete), 1u);
}

class LinkageSweep : public ::testing::TestWithParam<Linkage> {};

// Property: whatever the linkage, well-separated Gaussian blobs must be
// recovered exactly at a threshold between blob diameter and separation.
TEST_P(LinkageSweep, RecoversSeparatedBlobs) {
  util::Rng rng(17);
  const std::size_t per_blob = 12;
  std::vector<std::vector<float>> points;
  std::vector<std::size_t> truth;
  const float centers[3][2] = {{0, 0}, {30, 0}, {0, 30}};
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      points.push_back({centers[b][0] + rng.normalf(0, 0.5f),
                        centers[b][1] + rng.normalf(0, 0.5f)});
      truth.push_back(b);
    }
  }
  const Tensor d = l2_distance_matrix(points);
  const auto labels = cluster_by_threshold(d, 10.0f, GetParam());
  EXPECT_EQ(num_clusters(labels), 3u);
  EXPECT_DOUBLE_EQ(adjusted_rand_index(labels, truth), 1.0);
  // cut_to_k(3) must find the same partition.
  const auto by_k = cut_to_k(agglomerative(d, GetParam()), 3);
  EXPECT_DOUBLE_EQ(adjusted_rand_index(by_k, truth), 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllLinkages, LinkageSweep,
                         ::testing::Values(Linkage::kSingle,
                                           Linkage::kComplete,
                                           Linkage::kAverage,
                                           Linkage::kWard));

// Monotonicity of merge distances for the reducible linkages.
class MonotoneSweep : public ::testing::TestWithParam<Linkage> {};

TEST_P(MonotoneSweep, MergeDistancesNondecreasing) {
  util::Rng rng(23);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 25; ++i) {
    points.push_back({rng.normalf(0, 5), rng.normalf(0, 5)});
  }
  const Dendrogram d =
      agglomerative(l2_distance_matrix(points), GetParam());
  for (std::size_t i = 1; i < d.merges.size(); ++i) {
    EXPECT_GE(d.merges[i].distance, d.merges[i - 1].distance - 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(ReducibleLinkages, MonotoneSweep,
                         ::testing::Values(Linkage::kSingle,
                                           Linkage::kComplete,
                                           Linkage::kAverage));

// ------------------------------------------------- reference equivalence

// The all-pairs search agglomerative() used before its nearest-neighbour
// cache, kept verbatim as an oracle: every step rescans each live pair in
// row-major order with a strict <, on a double working copy. O(n^3).
float reference_lw_update(Linkage linkage, float dac, float dbc, float dab,
                          std::size_t na, std::size_t nb, std::size_t nc) {
  switch (linkage) {
    case Linkage::kSingle:
      return std::min(dac, dbc);
    case Linkage::kComplete:
      return std::max(dac, dbc);
    case Linkage::kAverage: {
      const float fa = static_cast<float>(na) / static_cast<float>(na + nb);
      return fa * dac + (1.0f - fa) * dbc;
    }
    case Linkage::kWard: {
      const float n_abc = static_cast<float>(na + nb + nc);
      const float t = (static_cast<float>(na + nc) * dac * dac +
                       static_cast<float>(nb + nc) * dbc * dbc -
                       static_cast<float>(nc) * dab * dab) /
                      n_abc;
      return std::sqrt(std::max(t, 0.0f));
    }
  }
  return 0.0f;
}

Dendrogram reference_agglomerative(const Tensor& dist, Linkage linkage) {
  validate_distance_matrix(dist);
  const std::size_t n = dist.dim(0);
  Dendrogram dendro;
  dendro.n_leaves = n;
  if (n <= 1) return dendro;

  std::vector<double> d(n * n);
  for (std::size_t i = 0; i < n * n; ++i) d[i] = dist[i];
  std::vector<std::size_t> id(n);
  std::iota(id.begin(), id.end(), 0);
  std::vector<std::size_t> size(n, 1);
  std::vector<bool> alive(n, true);

  std::size_t next_id = n;
  for (std::size_t step = 0; step + 1 < n; ++step) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0;
    std::size_t bj = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!alive[j]) continue;
        if (d[i * n + j] < best) {
          best = d[i * n + j];
          bi = i;
          bj = j;
        }
      }
    }

    dendro.merges.push_back({id[bi], id[bj], static_cast<float>(best)});

    const float dab = static_cast<float>(d[bi * n + bj]);
    for (std::size_t c = 0; c < n; ++c) {
      if (!alive[c] || c == bi || c == bj) continue;
      const float updated = reference_lw_update(
          linkage, static_cast<float>(d[bi * n + c]),
          static_cast<float>(d[bj * n + c]), dab, size[bi], size[bj],
          size[c]);
      d[bi * n + c] = updated;
      d[c * n + bi] = updated;
    }
    size[bi] += size[bj];
    alive[bj] = false;
    id[bi] = next_id++;
  }
  return dendro;
}

// Merge-for-merge equality: the same (a, b) and the same distance bits.
::testing::AssertionResult same_merges(const Tensor& dist, Linkage linkage) {
  const Dendrogram got = agglomerative(dist, linkage);
  const Dendrogram want = reference_agglomerative(dist, linkage);
  if (got.n_leaves != want.n_leaves ||
      got.merges.size() != want.merges.size()) {
    return ::testing::AssertionFailure() << "shape differs";
  }
  for (std::size_t i = 0; i < got.merges.size(); ++i) {
    const auto& g = got.merges[i];
    const auto& w = want.merges[i];
    if (g.a != w.a || g.b != w.b ||
        std::bit_cast<std::uint32_t>(g.distance) !=
            std::bit_cast<std::uint32_t>(w.distance)) {
      return ::testing::AssertionFailure()
             << "merge " << i << " of n=" << dist.dim(0) << ": got (" << g.a
             << ", " << g.b << ", " << g.distance << "), want (" << w.a
             << ", " << w.b << ", " << w.distance << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// Symmetric matrix with zero diagonal whose off-diagonal entries come from
// entry(rng).
template <typename Entry>
Tensor symmetric_matrix(std::size_t n, util::Rng& rng, Entry entry) {
  Tensor d({n, n});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const float v = entry(rng);
      d[i * n + j] = v;
      d[j * n + i] = v;
    }
  }
  return d;
}

class ReferenceEquivalence : public ::testing::TestWithParam<Linkage> {};

TEST_P(ReferenceEquivalence, RandomL2Matrices) {
  std::vector<std::size_t> sizes(39);
  std::iota(sizes.begin(), sizes.end(), 2);  // every n in 2..40
  for (const std::size_t n : {64u, 100u, 157u, 211u, 300u}) {
    sizes.push_back(n);
  }
  for (const std::size_t n : sizes) {
    util::Rng rng(1000 + n);
    std::vector<std::vector<float>> points(n, std::vector<float>(4));
    for (auto& p : points) {
      for (auto& x : p) x = rng.normalf(0, 1);
    }
    ASSERT_TRUE(same_merges(l2_distance_matrix(points), GetParam()));
  }
}

// Small integers make many exact ties, so the tie-break order of the
// cached search must match the row-major scan's.
TEST_P(ReferenceEquivalence, TieHeavyIntegerMatrices) {
  for (std::uint64_t seed = 0; seed < 320; ++seed) {
    util::Rng rng(seed);
    const auto n = static_cast<std::size_t>(rng.randint(2, 41));
    const Tensor d = symmetric_matrix(n, rng, [](util::Rng& r) {
      return static_cast<float>(r.randint(0, 4));
    });
    ASSERT_TRUE(same_merges(d, GetParam())) << "seed " << seed;
  }
}

TEST_P(ReferenceEquivalence, AllEqualMatrix) {
  for (const float v : {0.0f, 1.0f}) {
    util::Rng rng(0);
    const Tensor d = symmetric_matrix(64, rng, [v](util::Rng&) { return v; });
    ASSERT_TRUE(same_merges(d, GetParam())) << "value " << v;
  }
}

// Infinite entries (and the NaNs Ward's update derives from them) are
// never below the running minimum; both searches must skip them alike.
TEST_P(ReferenceEquivalence, InfiniteEntries) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    util::Rng rng(seed);
    const auto n = static_cast<std::size_t>(rng.randint(2, 20));
    const Tensor d = symmetric_matrix(n, rng, [](util::Rng& r) {
      const auto k = r.randint(0, 3);
      return k == 2 ? kInf : static_cast<float>(k + 1);
    });
    ASSERT_TRUE(same_merges(d, GetParam())) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLinkages, ReferenceEquivalence,
                         ::testing::Values(Linkage::kSingle,
                                           Linkage::kComplete,
                                           Linkage::kAverage,
                                           Linkage::kWard));

// ----------------------------------------------------------- gap threshold

TEST(GapThreshold, FindsTheNaturalCut) {
  // Two tight pairs far apart: merges at ~0.1, ~0.1, ~10 -> the widest gap
  // is between 0.1 and 10, so the threshold lands in (0.1, 10) and cuts the
  // data into the 2 natural clusters.
  const Dendrogram d = agglomerative(two_pair_matrix(), Linkage::kAverage);
  const float lambda = gap_threshold(d);
  EXPECT_GT(lambda, 0.2f);
  EXPECT_LT(lambda, 10.0f);
  EXPECT_EQ(num_clusters(cut_by_threshold(d, lambda)), 2u);
}

TEST(GapThreshold, RespectsClusterBounds) {
  const Dendrogram d = agglomerative(two_pair_matrix(), Linkage::kAverage);
  // Forcing at least 3 clusters must cut below the second cheap merge.
  const float lambda = gap_threshold(d, 3, 4);
  const auto k = num_clusters(cut_by_threshold(d, lambda));
  EXPECT_GE(k, 3u);
  EXPECT_LE(k, 4u);
}

TEST(GapThreshold, TrivialDendrograms) {
  EXPECT_EQ(gap_threshold(agglomerative(Tensor({1, 1}))), 0.0f);
  // Two points: a single merge, no gap to exploit -> threshold above it
  // (one cluster).
  const std::vector<std::vector<float>> v = {{0.0f}, {1.0f}};
  const Dendrogram d = agglomerative(l2_distance_matrix(v));
  const float lambda = gap_threshold(d);
  EXPECT_EQ(num_clusters(cut_by_threshold(d, lambda)), 1u);
}

TEST(GapThreshold, ThreeBlobsAutoRecovered) {
  util::Rng rng(31);
  std::vector<std::vector<float>> points;
  std::vector<std::size_t> truth;
  const float centers[3][2] = {{0, 0}, {50, 0}, {0, 50}};
  for (std::size_t b = 0; b < 3; ++b) {
    for (int i = 0; i < 10; ++i) {
      points.push_back({centers[b][0] + rng.normalf(0, 1.0f),
                        centers[b][1] + rng.normalf(0, 1.0f)});
      truth.push_back(b);
    }
  }
  const Dendrogram d =
      agglomerative(l2_distance_matrix(points), Linkage::kAverage);
  const auto labels = cut_by_threshold(d, gap_threshold(d));
  EXPECT_EQ(num_clusters(labels), 3u);
  EXPECT_DOUBLE_EQ(adjusted_rand_index(labels, truth), 1.0);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, AriPerfectAndLabelInvariant) {
  const std::vector<std::size_t> a = {0, 0, 1, 1, 2, 2};
  const std::vector<std::size_t> b = {5, 5, 9, 9, 7, 7};  // relabeled
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, b), 1.0);
}

TEST(Metrics, AriDisagreementIsLow) {
  const std::vector<std::size_t> a = {0, 0, 0, 1, 1, 1};
  const std::vector<std::size_t> b = {0, 1, 0, 1, 0, 1};
  EXPECT_LT(adjusted_rand_index(a, b), 0.2);
}

TEST(Metrics, AriHandlesTrivialPartitions) {
  const std::vector<std::size_t> all_same = {0, 0, 0};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(all_same, all_same), 1.0);
  EXPECT_THROW(adjusted_rand_index({}, {}), std::invalid_argument);
  EXPECT_THROW(adjusted_rand_index({0}, {0, 1}), std::invalid_argument);
}

TEST(Metrics, Purity) {
  const std::vector<std::size_t> pred = {0, 0, 0, 1, 1};
  const std::vector<std::size_t> truth = {0, 0, 1, 1, 1};
  // Cluster 0 majority=0 (2/3 right), cluster 1 majority=1 (2/2 right).
  EXPECT_DOUBLE_EQ(purity(pred, truth), 4.0 / 5.0);
  EXPECT_DOUBLE_EQ(purity(truth, truth), 1.0);
  EXPECT_THROW(purity({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace fedclust::clustering
