#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

namespace fedclust::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIsPureFunctionOfSeedAndStream) {
  Rng root(7);
  Rng s1 = root.split(3);
  // Advancing the root must not change what split(3) yields.
  root.next_u64();
  root.next_u64();
  Rng s2 = root.split(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(s1.next_u64(), s2.next_u64());
}

TEST(Rng, SplitStreamsAreDistinct) {
  Rng root(7);
  Rng a = root.split(0);
  Rng b = root.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 4.0);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 4.0);
  }
}

TEST(Rng, RandintCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.randint(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LT(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);  // all of -3..4 hit
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(5);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, GammaMeanMatchesShape) {
  Rng rng(9);
  for (const double shape : {0.3, 1.0, 2.5, 7.0}) {
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += rng.gamma(shape);
    EXPECT_NEAR(sum / n, shape, 0.08 * shape + 0.02) << "shape=" << shape;
  }
}

TEST(Rng, GammaRejectsNonPositiveShape) {
  Rng rng(1);
  EXPECT_THROW(rng.gamma(0.0), std::invalid_argument);
  EXPECT_THROW(rng.gamma(-1.0), std::invalid_argument);
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(13);
  for (const double alpha : {0.1, 0.5, 1.0, 10.0}) {
    const auto p = rng.dirichlet(alpha, 10);
    ASSERT_EQ(p.size(), 10u);
    double sum = 0.0;
    for (const double pi : p) {
      EXPECT_GE(pi, 0.0);
      sum += pi;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Rng, DirichletLowAlphaIsPeaked) {
  Rng rng(13);
  // With alpha = 0.05 the draw should concentrate on few categories.
  double max_avg = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const auto p = rng.dirichlet(0.05, 10);
    max_avg += *std::max_element(p.begin(), p.end());
  }
  EXPECT_GT(max_avg / trials, 0.6);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(17);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({1.0, -0.5}), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  const auto s = rng.sample_without_replacement(100, 10);
  ASSERT_EQ(s.size(), 10u);
  const std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (const auto i : s) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(23);
  const auto s = rng.sample_without_replacement(5, 5);
  const std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(23);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

// The skips must consume exactly the draws of the calls they stand in for,
// including the cached second normal deviate that gamma() leaves behind.
TEST(Rng, SkipSampleWithoutReplacementMatchesDraw) {
  for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{10, 0},
                             {10, 3},
                             {10, 10},
                             {62, 17}}) {
    Rng drawn(31);
    Rng skipped(31);
    (void)drawn.sample_without_replacement(n, k);
    skipped.skip_sample_without_replacement(n, k);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(drawn.normal(), skipped.normal());
  }
  Rng rng(23);
  EXPECT_THROW(rng.skip_sample_without_replacement(3, 4),
               std::invalid_argument);
}

TEST(Rng, SkipDirichletMatchesDraw) {
  for (const double alpha : {0.05, 0.5, 1.0, 7.0}) {
    for (const std::size_t k : {1u, 2u, 10u, 33u}) {
      Rng drawn(37);
      Rng skipped(37);
      (void)drawn.dirichlet(alpha, k);
      skipped.skip_dirichlet(alpha, k);
      for (int i = 0; i < 8; ++i) EXPECT_EQ(drawn.normal(), skipped.normal());
    }
  }
}

// Property sweep: statistical sanity holds across seeds.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanNearHalf) {
  Rng rng(GetParam());
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST_P(RngSeedSweep, SampleWithoutReplacementIsUniformish) {
  Rng rng(GetParam());
  std::vector<int> hits(20, 0);
  for (int t = 0; t < 4000; ++t) {
    for (const auto i : rng.sample_without_replacement(20, 5)) {
      ++hits[i];
    }
  }
  // Each index expected 1000 times.
  for (const int h : hits) EXPECT_NEAR(h, 1000, 150);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1u, 7u, 42u, 12345u, 999999937u));

}  // namespace
}  // namespace fedclust::util
