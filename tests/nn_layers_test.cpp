// Gradient-checks every layer's backward pass against central finite
// differences, plus forward-pass spot checks on known values.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "tensor/im2col.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace fedclust::nn {
namespace {

using tensor::Tensor;

Tensor random_input(tensor::Shape shape, util::Rng& rng, float scale = 1.0f) {
  Tensor t(std::move(shape));
  for (auto& x : t.vec()) x = rng.normalf(0.0f, scale);
  return t;
}

// Scalarizes the module output with fixed random projection weights so we
// can finite-difference a single number.
struct GradCheck {
  Module& module;
  Tensor input;
  Tensor proj;  // same shape as module output

  explicit GradCheck(Module& m, Tensor in, util::Rng& rng)
      : module(m), input(std::move(in)) {
    const Tensor out = module.forward(input, /*train=*/false);
    proj = Tensor(out.shape());
    for (auto& x : proj.vec()) x = rng.normalf(0.0f, 1.0f);
  }

  double scalar_loss() {
    const Tensor out = module.forward(input, /*train=*/false);
    double s = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      s += static_cast<double>(out[i]) * proj[i];
    }
    return s;
  }

  // Analytic grads: one backward pass with grad_out = proj.
  Tensor analytic_input_grad() {
    module.zero_grad();
    module.forward(input, /*train=*/true);
    return module.backward(proj);
  }

  void check_input_grad(double eps = 1e-3, double tol = 2e-2) {
    const Tensor gx = analytic_input_grad();
    for (std::size_t i = 0; i < input.size(); ++i) {
      const float saved = input[i];
      input[i] = saved + static_cast<float>(eps);
      const double lp = scalar_loss();
      input[i] = saved - static_cast<float>(eps);
      const double lm = scalar_loss();
      input[i] = saved;
      const double num = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(gx[i], num, tol * (std::abs(num) + 1.0))
          << "input grad mismatch at " << i;
    }
  }

  void check_param_grads(double eps = 1e-3, double tol = 2e-2) {
    analytic_input_grad();  // fills parameter grads
    for (Parameter* p : module.parameters()) {
      // Copy analytic grads before the FD loop perturbs state.
      const Tensor g = p->grad;
      for (std::size_t i = 0; i < p->value.size(); ++i) {
        const float saved = p->value[i];
        p->value[i] = saved + static_cast<float>(eps);
        const double lp = scalar_loss();
        p->value[i] = saved - static_cast<float>(eps);
        const double lm = scalar_loss();
        p->value[i] = saved;
        const double num = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(g[i], num, tol * (std::abs(num) + 1.0))
            << p->name << " grad mismatch at " << i;
      }
    }
  }
};

// ----------------------------------------------------------------- linear

TEST(Linear, ForwardKnown) {
  Linear fc(2, 2, "fc");
  fc.weight().value = Tensor({2, 2}, {1, 2, 3, 4});
  fc.bias().value = Tensor({2}, {10, 20});
  const Tensor x({1, 2}, {1, 1});
  const Tensor y = fc.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 13.0f);  // 1*1+2*1+10
  EXPECT_FLOAT_EQ(y[1], 27.0f);  // 3*1+4*1+20
}

TEST(Linear, RejectsWrongWidth) {
  Linear fc(3, 2);
  EXPECT_THROW(fc.forward(Tensor({1, 4}), false), std::invalid_argument);
  EXPECT_THROW(fc.backward(Tensor({1, 2})), std::logic_error);
}

TEST(Linear, GradCheck) {
  util::Rng rng(1);
  auto fc = make_linear(5, 4, rng, "fc");
  GradCheck gc(*fc, random_input({3, 5}, rng), rng);
  gc.check_input_grad();
  gc.check_param_grads();
}

TEST(Linear, GradAccumulatesAcrossBackwards) {
  util::Rng rng(2);
  auto fc = make_linear(3, 2, rng, "fc");
  const Tensor x = random_input({2, 3}, rng);
  const Tensor g = random_input({2, 2}, rng);
  fc->zero_grad();
  fc->forward(x, true);
  fc->backward(g);
  const Tensor once = fc->weight().grad;
  fc->forward(x, true);
  fc->backward(g);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(fc->weight().grad[i], 2.0f * once[i], 1e-5);
  }
}

// ------------------------------------------------------------------ conv

TEST(Conv2d, ForwardKnownIdentityKernel) {
  Conv2d conv(1, 1, 1, 1, 0, "c");
  conv.weight().value = Tensor({1, 1}, {2.0f});
  conv.parameters()[1]->value = Tensor({1}, {1.0f});
  const Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[3], 9.0f);
}

TEST(Conv2d, ForwardKnownSum) {
  // 2x2 all-ones kernel on 3x3 ramp, no pad: sliding window sums.
  Conv2d conv(1, 1, 2, 1, 0, "c");
  conv.weight().value = Tensor::full({1, 4}, 1.0f);
  const Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 16.0f);
  EXPECT_FLOAT_EQ(y[2], 24.0f);
  EXPECT_FLOAT_EQ(y[3], 28.0f);
}

TEST(Conv2d, RejectsWrongChannels) {
  Conv2d conv(3, 4, 3, 1, 1);
  EXPECT_THROW(conv.forward(Tensor({1, 2, 8, 8}), false),
               std::invalid_argument);
}

TEST(Conv2d, GradCheckStride1Pad1) {
  util::Rng rng(3);
  auto conv = make_conv(2, 3, 3, 1, 1, rng, "c");
  GradCheck gc(*conv, random_input({2, 2, 5, 5}, rng), rng);
  gc.check_input_grad();
  gc.check_param_grads();
}

TEST(Conv2d, GradCheckStride2NoPad) {
  util::Rng rng(4);
  auto conv = make_conv(1, 2, 3, 2, 0, rng, "c");
  GradCheck gc(*conv, random_input({1, 1, 7, 7}, rng), rng);
  gc.check_input_grad();
  gc.check_param_grads();
}

// ---------------------------------------------------------------- pooling

TEST(MaxPool, ForwardKnown) {
  MaxPool2d pool(2);
  const Tensor x({1, 1, 4, 4},
                 {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[3], 16.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  const Tensor x({1, 1, 2, 2}, {1, 9, 3, 4});
  pool.forward(x, true);
  const Tensor g({1, 1, 1, 1}, {5.0f});
  const Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 5.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(MaxPool, GradCheck) {
  util::Rng rng(5);
  MaxPool2d pool(2);
  // Distinct values so the argmax is stable under the FD epsilon.
  Tensor x({1, 2, 4, 4});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(i % 7) + 0.01f * static_cast<float>(i);
  }
  GradCheck gc(pool, x, rng);
  gc.check_input_grad();
}

TEST(AvgPool, ForwardAndGradCheck) {
  util::Rng rng(6);
  AvgPool2d pool(2);
  const Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  GradCheck gc(pool, random_input({2, 3, 4, 4}, rng), rng);
  gc.check_input_grad();
}

TEST(GlobalAvgPool, ForwardAndGradCheck) {
  util::Rng rng(7);
  GlobalAvgPool2d gap;
  const Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor y = gap.forward(x, false);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 25.0f);
  GradCheck gc(gap, random_input({2, 3, 3, 3}, rng), rng);
  gc.check_input_grad();
}

TEST(Flatten, RoundTripsShape) {
  Flatten f;
  const Tensor x({2, 3, 4, 4});
  const Tensor y = f.forward(x, true);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 48}));
  const Tensor gx = f.backward(Tensor({2, 48}));
  EXPECT_EQ(gx.shape(), x.shape());
}

// ------------------------------------------------------------ activations

TEST(ReLUTest, ForwardClampsAndGradMasks) {
  ReLU relu;
  const Tensor x({1, 4}, {-1, 0, 2, -3});
  const Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  const Tensor g({1, 4}, {1, 1, 1, 1});
  const Tensor gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 0.0f);
  EXPECT_FLOAT_EQ(gx[2], 1.0f);
}

TEST(TanhTest, GradCheck) {
  util::Rng rng(8);
  Tanh tanh_layer;
  GradCheck gc(tanh_layer, random_input({3, 5}, rng), rng);
  gc.check_input_grad();
}

// -------------------------------------------------------------- groupnorm

TEST(GroupNormTest, NormalizesPerGroup) {
  GroupNorm gn(2, 4);  // 4 channels, 2 groups
  util::Rng rng(9);
  const Tensor x = random_input({2, 4, 3, 3}, rng, 3.0f);
  const Tensor y = gn.forward(x, false);
  // Each (sample, group) slab should have ~zero mean and ~unit variance.
  const std::size_t area = 9;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t g = 0; g < 2; ++g) {
      double sum = 0.0;
      double sq = 0.0;
      for (std::size_t c = 0; c < 2; ++c) {
        const float* plane = y.data() + ((i * 4 + g * 2 + c) * area);
        for (std::size_t p = 0; p < area; ++p) {
          sum += plane[p];
          sq += static_cast<double>(plane[p]) * plane[p];
        }
      }
      const double mean = sum / 18.0;
      EXPECT_NEAR(mean, 0.0, 1e-4);
      EXPECT_NEAR(sq / 18.0 - mean * mean, 1.0, 1e-2);
    }
  }
}

TEST(GroupNormTest, RejectsIndivisibleChannels) {
  EXPECT_THROW(GroupNorm(3, 4), std::invalid_argument);
}

TEST(GroupNormTest, GradCheck) {
  util::Rng rng(10);
  GroupNorm gn(2, 4);
  // Non-trivial gamma/beta so their gradients are exercised.
  for (auto& v : gn.parameters()[0]->value.vec()) v = rng.normalf(1.0f, 0.2f);
  for (auto& v : gn.parameters()[1]->value.vec()) v = rng.normalf(0.0f, 0.2f);
  GradCheck gc(gn, random_input({2, 4, 3, 3}, rng), rng);
  gc.check_input_grad(1e-3, 5e-2);
  gc.check_param_grads(1e-3, 5e-2);
}

// --------------------------------------------------------------- residual

TEST(Residual, ForwardAddsSkip) {
  // Body that doubles the input: conv 1x1 with weight 2, no bias.
  auto body = std::make_unique<Conv2d>(1, 1, 1, 1, 0, "b");
  body->weight().value = Tensor({1, 1}, {2.0f});
  ResidualBlock res(std::move(body));
  const Tensor x({1, 1, 1, 2}, {1.0f, -1.0f});
  const Tensor y = res.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 3.0f);   // relu(2*1 + 1)
  EXPECT_FLOAT_EQ(y[1], 0.0f);   // relu(2*-1 + -1) = relu(-3)
}

TEST(Residual, RejectsShapeChangingBody) {
  util::Rng rng(11);
  auto body = make_conv(1, 2, 3, 1, 1, rng, "b");  // changes channel count
  ResidualBlock res(std::move(body));
  EXPECT_THROW(res.forward(Tensor({1, 1, 4, 4}), false),
               std::invalid_argument);
}

TEST(Residual, GradCheck) {
  util::Rng rng(12);
  auto body = std::make_unique<Sequential>();
  body->add(make_conv(2, 2, 3, 1, 1, rng, "a"));
  body->emplace<Tanh>();  // smooth body keeps FD well-behaved
  ResidualBlock res(std::move(body));
  GradCheck gc(res, random_input({1, 2, 4, 4}, rng), rng);
  gc.check_input_grad(1e-3, 5e-2);
  gc.check_param_grads(1e-3, 5e-2);
}

// ------------------------------------------- bit-equality vs. oracles
//
// Test-only oracles: the straightforward layer implementations the
// optimized ones replaced — per-image im2col -> GEMM -> col2im convolution,
// x W^T linear, copy-and-branch ReLU with a bool mask, and the scanning
// max pool — written out with naive loops. Every GEMM element sums its
// fl(a*b) terms in ascending p onto its beta-scaled start, the golden
// order of the scalar kernel table. The real layers must match them bit
// for bit (NaN payloads aside where arithmetic meets NaN inputs).

bool same_bits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// Bitwise equal, except that any two NaNs match: IEEE leaves the payload of
// an arithmetic result with two NaN operands to the operand order.
void expect_bits(const Tensor& want, const Tensor& got, const char* what,
                 bool nan_any_payload = false) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const bool ok = same_bits(want[i], got[i]) ||
                    (nan_any_payload && std::isnan(want[i]) &&
                     std::isnan(got[i]));
    ASSERT_TRUE(ok) << what << " differs at " << i << ": " << want[i]
                    << " vs " << got[i];
  }
}

// C(m, n) = op(A) op(B) + beta C in the golden element order.
void ref_gemm(bool ta, bool tb, std::size_t m, std::size_t n, std::size_t k,
              const float* a, std::size_t lda, const float* b,
              std::size_t ldb, float beta, float* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = beta == 0.0f ? 0.0f
                               : (beta == 1.0f ? c[i * ldc + j]
                                               : c[i * ldc + j] * beta);
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * lda + i] : a[i * lda + p];
        const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
        acc += av * bv;
      }
      c[i * ldc + j] = acc;
    }
  }
}

struct ConvGeom {
  std::size_t c, h, w, k, stride, pad, oh, ow;
  ConvGeom(std::size_t c_, std::size_t h_, std::size_t w_, std::size_t k_,
           std::size_t s_, std::size_t p_)
      : c(c_), h(h_), w(w_), k(k_), stride(s_), pad(p_),
        oh(tensor::conv_out_dim(h_, k_, s_, p_)),
        ow(tensor::conv_out_dim(w_, k_, s_, p_)) {}
  std::size_t rows() const { return c * k * k; }
  std::size_t area() const { return oh * ow; }
  // Input offset of tap (row, oy, ox) in a CHW image, or -1 in the padding.
  std::ptrdiff_t tap(std::size_t row, std::size_t oy, std::size_t ox) const {
    const std::size_t ch = row / (k * k);
    const std::size_t ky = (row % (k * k)) / k;
    const std::size_t kx = row % k;
    const auto iy = static_cast<std::ptrdiff_t>(oy * stride + ky) -
                    static_cast<std::ptrdiff_t>(pad);
    const auto ix = static_cast<std::ptrdiff_t>(ox * stride + kx) -
                    static_cast<std::ptrdiff_t>(pad);
    if (iy < 0 || ix < 0 || iy >= static_cast<std::ptrdiff_t>(h) ||
        ix >= static_cast<std::ptrdiff_t>(w)) {
      return -1;
    }
    return static_cast<std::ptrdiff_t>(ch * h * w) + iy *
           static_cast<std::ptrdiff_t>(w) + ix;
  }
};

struct OracleConv {
  Tensor y, grad_in, dw, db;
};

// Per-image oracle: forward im2col -> GEMM -> bias per image, backward per
// image dW += gy col^T, db += double plane sums, dcol = W^T gy, col2im.
OracleConv oracle_conv(const ConvGeom& g, const Tensor& x, const Tensor& wt,
                       const Tensor& bias, const Tensor& gy, Tensor dw,
                       Tensor db) {
  const std::size_t n = x.dim(0);
  const std::size_t oc = wt.dim(0);
  const std::size_t rows = g.rows();
  const std::size_t area = g.area();
  OracleConv out{Tensor({n, oc, g.oh, g.ow}), Tensor({n, g.c, g.h, g.w}),
                 std::move(dw), std::move(db)};
  std::vector<float> col(rows * area);
  std::vector<float> dcol(rows * area);
  for (std::size_t i = 0; i < n; ++i) {
    const float* img = x.data() + i * g.c * g.h * g.w;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t oy = 0; oy < g.oh; ++oy) {
        for (std::size_t ox = 0; ox < g.ow; ++ox) {
          const std::ptrdiff_t t = g.tap(r, oy, ox);
          col[r * area + oy * g.ow + ox] = t < 0 ? 0.0f : img[t];
        }
      }
    }
    float* yi = out.y.data() + i * oc * area;
    ref_gemm(false, false, oc, area, rows, wt.data(), rows, col.data(), area,
             0.0f, yi, area);
    for (std::size_t o = 0; o < oc; ++o) {
      for (std::size_t p = 0; p < area; ++p) yi[o * area + p] += bias[o];
    }
    const float* gyi = gy.data() + i * oc * area;
    ref_gemm(false, true, oc, rows, area, gyi, area, col.data(), area, 1.0f,
             out.dw.data(), rows);
    for (std::size_t o = 0; o < oc; ++o) {
      double s = 0.0;
      for (std::size_t p = 0; p < area; ++p) s += gyi[o * area + p];
      out.db[o] += static_cast<float>(s);
    }
    ref_gemm(true, false, rows, area, oc, wt.data(), rows, gyi, area, 0.0f,
             dcol.data(), area);
    float* gi = out.grad_in.data() + i * g.c * g.h * g.w;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t oy = 0; oy < g.oh; ++oy) {
        for (std::size_t ox = 0; ox < g.ow; ++ox) {
          const std::ptrdiff_t t = g.tap(r, oy, ox);
          if (t >= 0) gi[t] += dcol[r * area + oy * g.ow + ox];
        }
      }
    }
  }
  return out;
}

void fill_random(Tensor& t, util::Rng& rng) {
  for (auto& v : t.vec()) v = rng.normalf(0.0f, 1.0f);
}

// Sprinkles signed zeros, infinities and NaNs into t.
void sprinkle_specials(Tensor& t, util::Rng& rng) {
  const float specials[] = {0.0f, -0.0f, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (std::size_t i = 0; i < t.size();
       i += 1 + static_cast<std::size_t>(rng.randint(0, 9))) {
    t[i] = specials[rng.randint(0, 5)];
  }
}

struct ConvCase {
  std::size_t in_c, out_c, h, w, k, stride, pad;
};

void expect_conv_matches_oracle(const ConvCase& cc, std::size_t n,
                                bool specials, util::Rng& rng) {
  Conv2d conv(cc.in_c, cc.out_c, cc.k, cc.stride, cc.pad, "c");
  const ConvGeom g(cc.in_c, cc.h, cc.w, cc.k, cc.stride, cc.pad);
  Parameter& wt = *conv.parameters()[0];
  Parameter& bias = *conv.parameters()[1];
  fill_random(wt.value, rng);
  fill_random(bias.value, rng);
  fill_random(wt.grad, rng);  // backward accumulates onto existing grads
  fill_random(bias.grad, rng);
  Tensor x({n, cc.in_c, cc.h, cc.w});
  fill_random(x, rng);
  Tensor gy({n, cc.out_c, g.oh, g.ow});
  fill_random(gy, rng);
  if (specials) {
    sprinkle_specials(x, rng);
    sprinkle_specials(gy, rng);
  }
  const OracleConv want =
      oracle_conv(g, x, wt.value, bias.value, gy, wt.grad, bias.grad);
  const Tensor y = conv.forward(x, /*train=*/true);
  const Tensor gx = conv.backward(gy);
  expect_bits(want.y, y, "conv y", specials);
  expect_bits(want.grad_in, gx, "conv grad_in", specials);
  expect_bits(want.dw, wt.grad, "conv dW", specials);
  expect_bits(want.db, bias.grad, "conv db", specials);
  // The inference path must agree with the training forward.
  expect_bits(want.y, conv.forward(x, /*train=*/false), "conv eval y",
              specials);
}

const ConvCase kConvCases[] = {
    {3, 6, 16, 16, 5, 1, 2},  // LeNet conv1
    {6, 16, 8, 8, 5, 1, 0},   // LeNet conv2
    {2, 5, 11, 9, 3, 1, 0},   // odd H/W
    {3, 4, 9, 11, 3, 2, 0},   // stride 2, odd H/W
    {3, 6, 13, 15, 5, 2, 2},  // stride 2, pad 2
    {1, 3, 7, 5, 5, 1, 2},    // kernel as wide as the image
};

// Every kernel table the host can run.
std::vector<util::SimdIsa> reachable_isas() {
  std::vector<util::SimdIsa> isas;
  for (std::size_t i = 0; i < util::kNumIsas; ++i) {
    const auto isa = static_cast<util::SimdIsa>(i);
    if (util::isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

TEST(OracleParity, Conv2dMatchesPerImageOracle) {
  const util::SimdIsa prev = util::active_isa();
  util::Rng rng(101);
  for (const auto isa : reachable_isas()) {
    ASSERT_TRUE(util::force_isa_for_testing(isa));
    for (const ConvCase& cc : kConvCases) {
      for (const std::size_t n : {1, 3, 10}) {
        SCOPED_TRACE(std::string("isa=") + util::isa_name(isa) +
                     " in_c=" + std::to_string(cc.in_c) +
                     " h=" + std::to_string(cc.h) +
                     " stride=" + std::to_string(cc.stride) +
                     " pad=" + std::to_string(cc.pad) +
                     " n=" + std::to_string(n));
        expect_conv_matches_oracle(cc, n, /*specials=*/false, rng);
        expect_conv_matches_oracle(cc, n, /*specials=*/true, rng);
      }
    }
  }
  util::force_isa_for_testing(prev);
}

TEST(OracleParity, Conv2dBackwardConsumesItsForward) {
  // Backward reuses the cached column matrix as dcol scratch, so a second
  // backward needs a fresh forward.
  util::Rng rng(102);
  Conv2d conv(2, 3, 3, 1, 1, "c");
  Tensor x({2, 2, 5, 5});
  fill_random(x, rng);
  const Tensor y = conv.forward(x, true);
  conv.backward(y);
  EXPECT_THROW(conv.backward(y), std::logic_error);
}

TEST(OracleParity, LinearMatchesOracle) {
  util::Rng rng(103);
  for (const std::size_t n : {1, 3, 10}) {
    for (const bool specials : {false, true}) {
      const std::size_t in = 64, out = 120;
      Linear fc(in, out, "fc");
      fill_random(fc.weight().value, rng);
      fill_random(fc.bias().value, rng);
      fill_random(fc.weight().grad, rng);
      fill_random(fc.bias().grad, rng);
      Tensor x({n, in});
      fill_random(x, rng);
      Tensor gy({n, out});
      fill_random(gy, rng);
      if (specials) {
        sprinkle_specials(x, rng);
        sprinkle_specials(gy, rng);
      }
      // y = x W^T + b; dW += gy^T x; db += gy rows; dx = gy W.
      Tensor y({n, out});
      ref_gemm(false, true, n, out, in, x.data(), in,
               fc.weight().value.data(), in, 0.0f, y.data(), out);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < out; ++j) {
          y[i * out + j] += fc.bias().value[j];
        }
      }
      Tensor dw = fc.weight().grad;
      ref_gemm(true, false, out, in, n, gy.data(), out, x.data(), in, 1.0f,
               dw.data(), in);
      Tensor db = fc.bias().grad;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < out; ++j) db[j] += gy[i * out + j];
      }
      Tensor dx({n, in});
      ref_gemm(false, false, n, in, out, gy.data(), out,
               fc.weight().value.data(), in, 0.0f, dx.data(), in);

      SCOPED_TRACE("n=" + std::to_string(n) +
                   " specials=" + std::to_string(specials));
      expect_bits(y, fc.forward(x, /*train=*/true), "fc y", specials);
      expect_bits(dx, fc.backward(gy), "fc dx", specials);
      expect_bits(dw, fc.weight().grad, "fc dW", specials);
      expect_bits(db, fc.bias().grad, "fc db", specials);
      expect_bits(y, fc.forward(x, /*train=*/false), "fc eval y", specials);
    }
  }
}

TEST(OracleParity, ReluMatchesOracle) {
  util::Rng rng(104);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x({2, 3, 5, 7});
  fill_random(x, rng);
  const float specials[] = {0.0f, -0.0f, inf, -inf, nan, -nan,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min()};
  for (std::size_t i = 0; i < std::size(specials); ++i) x[i * 7] = specials[i];
  Tensor gy(x.shape());
  fill_random(gy, rng);
  sprinkle_specials(gy, rng);
  // Oracle: copy, then zero everything not strictly positive; the backward
  // mask is the same predicate.
  Tensor want_y = x;
  std::vector<bool> mask(x.size(), false);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (want_y[i] > 0.0f) {
      mask[i] = true;
    } else {
      want_y[i] = 0.0f;
    }
  }
  Tensor want_gx = gy;
  for (std::size_t i = 0; i < gy.size(); ++i) {
    if (!mask[i]) want_gx[i] = 0.0f;
  }
  ReLU relu;
  expect_bits(want_y, relu.forward(x, /*train=*/true), "relu y");
  expect_bits(want_gx, relu.backward(gy), "relu grad");
  expect_bits(want_y, relu.forward(x, /*train=*/false), "relu eval y");
}

// Oracle max pool: row-major window scan, a strictly greater value takes
// over, best starts at -inf with flat index 0; backward adds each output
// grad at its argmax in output order.
std::pair<Tensor, Tensor> oracle_maxpool(const Tensor& x, const Tensor& gy,
                                         std::size_t k, std::size_t stride) {
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = gy.dim(2), ow = gy.dim(3);
  Tensor y(gy.shape());
  Tensor gx(x.shape());
  std::vector<std::size_t> arg(y.size());
  for (std::size_t pl = 0; pl < n * c; ++pl) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t ky = 0; ky < k; ++ky) {
          for (std::size_t kx = 0; kx < k; ++kx) {
            const std::size_t idx =
                pl * h * w + (oy * stride + ky) * w + ox * stride + kx;
            if (x[idx] > best) {
              best = x[idx];
              best_idx = idx;
            }
          }
        }
        const std::size_t o = (pl * oh + oy) * ow + ox;
        y[o] = best;
        arg[o] = best_idx;
      }
    }
  }
  for (std::size_t o = 0; o < y.size(); ++o) gx[arg[o]] += gy[o];
  return {y, gx};
}

TEST(OracleParity, MaxPoolMatchesOracle) {
  util::Rng rng(105);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  struct PoolCase { std::size_t n, c, h, w, k, stride; };
  for (const PoolCase pc : {PoolCase{10, 6, 16, 16, 2, 2},
                            PoolCase{3, 2, 9, 7, 2, 2},
                            PoolCase{1, 3, 9, 9, 3, 2},
                            PoolCase{2, 2, 7, 8, 3, 3}}) {
    Tensor x({pc.n, pc.c, pc.h, pc.w});
    fill_random(x, rng);
    sprinkle_specials(x, rng);
    const std::size_t w = pc.w;
    // Hand-built windows at the top-left of plane 0 (2x2 windows): all
    // equal; all -inf; -inf and NaN only; +0 before -0; -0 before +0.
    const float windows[][4] = {{1.5f, 1.5f, 1.5f, 1.5f},
                                {-inf, -inf, -inf, -inf},
                                {nan, -inf, nan, -inf},
                                {0.0f, -0.0f, -0.0f, 0.0f},
                                {-0.0f, 0.0f, 0.0f, -0.0f}};
    if (pc.k == 2) {
      for (std::size_t win = 0; win < std::size(windows) && 2 * win + 1 < w;
           ++win) {
        x[2 * win] = windows[win][0];
        x[2 * win + 1] = windows[win][1];
        x[w + 2 * win] = windows[win][2];
        x[w + 2 * win + 1] = windows[win][3];
      }
    }
    const std::size_t oh = tensor::conv_out_dim(pc.h, pc.k, pc.stride, 0);
    const std::size_t ow = tensor::conv_out_dim(pc.w, pc.k, pc.stride, 0);
    Tensor gy({pc.n, pc.c, oh, ow});
    fill_random(gy, rng);
    const auto [want_y, want_gx] = oracle_maxpool(x, gy, pc.k, pc.stride);
    MaxPool2d pool(pc.k, pc.stride);
    SCOPED_TRACE("h=" + std::to_string(pc.h) + " k=" + std::to_string(pc.k));
    expect_bits(want_y, pool.forward(x, /*train=*/true), "pool y");
    expect_bits(want_gx, pool.backward(gy), "pool grad");
    expect_bits(want_y, pool.forward(x, /*train=*/false), "pool eval y");
  }
}

// ------------------------------------------------------------- sequential

TEST(SequentialTest, ComposedGradCheck) {
  util::Rng rng(13);
  Sequential net;
  net.add(make_conv(1, 2, 3, 1, 1, rng, "c1"));
  net.emplace<Tanh>();
  net.emplace<MaxPool2d>(2);
  net.emplace<Flatten>();
  net.add(make_linear(2 * 2 * 2, 3, rng, "fc"));
  GradCheck gc(net, random_input({2, 1, 4, 4}, rng), rng);
  gc.check_input_grad(1e-3, 5e-2);
  gc.check_param_grads(1e-3, 5e-2);
}

TEST(SequentialTest, ParameterOrderIsStable) {
  util::Rng rng(14);
  Sequential net;
  net.add(make_linear(2, 3, rng, "fc1"));
  net.add(make_linear(3, 4, rng, "fc2"));
  const auto params = net.parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0]->name, "fc1.weight");
  EXPECT_EQ(params[1]->name, "fc1.bias");
  EXPECT_EQ(params[2]->name, "fc2.weight");
  EXPECT_EQ(params[3]->name, "fc2.bias");
}

TEST(SequentialTest, ZeroGradClearsAll) {
  util::Rng rng(15);
  Sequential net;
  net.add(make_linear(2, 2, rng, "fc"));
  net.forward(random_input({1, 2}, rng), true);
  net.backward(Tensor({1, 2}, {1, 1}));
  net.zero_grad();
  for (Parameter* p : net.parameters()) {
    for (const float g : p->grad.vec()) EXPECT_EQ(g, 0.0f);
  }
}

}  // namespace
}  // namespace fedclust::nn
