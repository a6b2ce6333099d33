#include "tensor/im2col.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "util/rng.h"

namespace fedclust::tensor {
namespace {

TEST(Im2Col, OutDim) {
  EXPECT_EQ(conv_out_dim(5, 3, 1, 0), 3u);
  EXPECT_EQ(conv_out_dim(5, 3, 1, 1), 5u);
  EXPECT_EQ(conv_out_dim(5, 3, 2, 0), 2u);
  EXPECT_EQ(conv_out_dim(4, 2, 2, 0), 2u);
  EXPECT_THROW(conv_out_dim(2, 5, 1, 0), std::invalid_argument);
}

TEST(Im2Col, Known3x3NoPad) {
  // 1x3x3 image, 2x2 kernel, stride 1, no pad -> col is (4, 4).
  const std::vector<float> img = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> col(4 * 4, -1.0f);
  im2col(img.data(), 1, 1, 3, 3, 2, 2, 1, 0, col.data());
  // Row 0: top-left of each patch.
  const std::vector<float> expect_row0 = {1, 2, 4, 5};
  const std::vector<float> expect_row3 = {5, 6, 8, 9};
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(col[0 * 4 + j], expect_row0[j]);
    EXPECT_EQ(col[3 * 4 + j], expect_row3[j]);
  }
}

TEST(Im2Col, PaddingYieldsZeros) {
  const std::vector<float> img = {1, 2, 3, 4};  // 1x2x2
  // 3x3 kernel, pad 1, stride 1 -> out 2x2, col (9, 4).
  std::vector<float> col(9 * 4, -1.0f);
  im2col(img.data(), 1, 1, 2, 2, 3, 3, 1, 1, col.data());
  // First row (ky=0,kx=0): every output position looks one up-left; for the
  // (0,0) output that's the padded corner.
  EXPECT_EQ(col[0 * 4 + 0], 0.0f);
  // Center row (ky=1,kx=1) reproduces the image itself.
  EXPECT_EQ(col[4 * 4 + 0], 1.0f);
  EXPECT_EQ(col[4 * 4 + 1], 2.0f);
  EXPECT_EQ(col[4 * 4 + 2], 3.0f);
  EXPECT_EQ(col[4 * 4 + 3], 4.0f);
}

TEST(Im2Col, MultiChannelRowOrdering) {
  // 2 channels of 2x2; 1x1 kernel: col row c is channel c flattened.
  const std::vector<float> img = {1, 2, 3, 4, 10, 20, 30, 40};
  std::vector<float> col(2 * 4);
  im2col(img.data(), 1, 2, 2, 2, 1, 1, 1, 0, col.data());
  EXPECT_EQ(col[0], 1.0f);
  EXPECT_EQ(col[3], 4.0f);
  EXPECT_EQ(col[4], 10.0f);
  EXPECT_EQ(col[7], 40.0f);
}

using ColCase =
    std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
               std::size_t, std::size_t>;  // c,h,w,k,stride,pad

class Im2ColAdjoint : public ::testing::TestWithParam<ColCase> {};

// col2im is the exact adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.
TEST_P(Im2ColAdjoint, DotTest) {
  const auto [c, h, w, k, stride, pad] = GetParam();
  const std::size_t oh = conv_out_dim(h, k, stride, pad);
  const std::size_t ow = conv_out_dim(w, k, stride, pad);
  const std::size_t col_size = c * k * k * oh * ow;
  util::Rng rng(c * 31 + h * 7 + w * 3 + k + stride + pad);

  std::vector<float> x(c * h * w);
  for (auto& v : x) v = rng.normalf(0, 1);
  std::vector<float> y(col_size);
  for (auto& v : y) v = rng.normalf(0, 1);

  std::vector<float> col(col_size);
  im2col(x.data(), 1, c, h, w, k, k, stride, pad, col.data());
  std::vector<float> img(c * h * w, 0.0f);
  col2im(y.data(), 1, c, h, w, k, k, stride, pad, img.data());

  double lhs = 0.0;
  for (std::size_t i = 0; i < col_size; ++i) {
    lhs += static_cast<double>(col[i]) * y[i];
  }
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x[i]) * img[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * (std::abs(lhs) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Im2ColAdjoint,
    ::testing::Values(ColCase{1, 4, 4, 2, 1, 0}, ColCase{1, 5, 5, 3, 1, 1},
                      ColCase{3, 8, 8, 3, 1, 1}, ColCase{3, 8, 8, 5, 1, 2},
                      ColCase{2, 7, 9, 3, 2, 1}, ColCase{4, 6, 6, 3, 3, 0},
                      ColCase{1, 3, 3, 3, 1, 2}));

}  // namespace
}  // namespace fedclust::tensor
