#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/adam.h"
#include "src/nn/layers.h"
#include "src/common/matrix.h"
#include "src/nn/mlp.h"

namespace llamatune {
namespace {

Matrix Batch(const std::vector<std::vector<double>>& rows) {
  Matrix m(static_cast<int>(rows.size()), static_cast<int>(rows[0].size()));
  for (int i = 0; i < m.rows(); ++i) {
    for (int c = 0; c < m.cols(); ++c) m.at(i, c) = rows[i][c];
  }
  return m;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.Row(i), b.Row(i), sizeof(double) * a.cols()) != 0) {
      return false;
    }
  }
  return true;
}

TEST(LinearLayerTest, ForwardMatchesManual) {
  Rng rng(1);
  LinearLayer layer(2, 1, &rng);
  layer.weights().at(0, 0) = 2.0;
  layer.weights().at(0, 1) = -1.0;
  layer.bias()[0] = 0.5;
  Matrix y = layer.Forward(Batch({{3.0, 4.0}, {1.0, 0.0}}));
  EXPECT_DOUBLE_EQ(y.at(0, 0), 2.0 * 3.0 - 4.0 + 0.5);
  EXPECT_DOUBLE_EQ(y.at(1, 0), 2.0 + 0.5);
}

TEST(LinearLayerTest, NumericalGradientCheck) {
  Rng rng(2);
  LinearLayer layer(3, 2, &rng);
  Matrix x = Batch({{0.3, -0.7, 1.1}, {-0.2, 0.5, 0.4}});
  auto loss = [&]() {
    // Loss = sum of every output of every sample; dL/dY = ones.
    Matrix y = layer.Forward(x);
    double sum = 0.0;
    for (double v : y.data()) sum += v;
    return sum;
  };
  layer.ZeroGrad();
  Matrix grad_in;
  layer.Backward(x, Matrix(2, 2, 1.0), ParamGrads::kAccumulate, &grad_in);

  const double eps = 1e-6;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      double orig = layer.weights().at(r, c);
      layer.weights().at(r, c) = orig + eps;
      double up = loss();
      layer.weights().at(r, c) = orig - eps;
      double down = loss();
      layer.weights().at(r, c) = orig;
      EXPECT_NEAR(layer.weight_grads().at(r, c), (up - down) / (2.0 * eps),
                  1e-5);
    }
    EXPECT_DOUBLE_EQ(layer.bias_grads()[r], 2.0);  // one per sample
  }
  // Each sample's input gradient equals the column sums of W.
  for (int i = 0; i < 2; ++i) {
    for (int c = 0; c < 3; ++c) {
      double expected = layer.weights().at(0, c) + layer.weights().at(1, c);
      EXPECT_NEAR(grad_in.at(i, c), expected, 1e-9);
    }
  }
}

TEST(LinearLayerTest, SkipLeavesParamGradsByteIdentical) {
  Rng rng(3);
  LinearLayer layer(5, 4, &rng);
  for (double& v : layer.weight_grads().data()) v = rng.Gaussian();
  for (double& v : layer.bias_grads()) v = rng.Gaussian();
  Matrix dw_before = layer.weight_grads();
  std::vector<double> db_before = layer.bias_grads();
  Matrix x(3, 5), g(3, 4);
  for (double& v : x.data()) v = rng.Gaussian();
  for (double& v : g.data()) v = rng.Gaussian();

  Matrix skipped;
  layer.Backward(x, g, ParamGrads::kSkip, &skipped);
  EXPECT_TRUE(SameBits(layer.weight_grads(), dw_before));
  EXPECT_EQ(std::memcmp(layer.bias_grads().data(), db_before.data(),
                        sizeof(double) * db_before.size()),
            0);
  // The input gradient does not depend on the mode.
  Matrix accumulated;
  layer.Backward(x, g, ParamGrads::kAccumulate, &accumulated);
  EXPECT_TRUE(SameBits(skipped, accumulated));
  EXPECT_FALSE(SameBits(layer.weight_grads(), dw_before));
}

TEST(ActivationTest, TanhBackward) {
  Matrix h = Batch({{0.5, -0.5}});
  TanhForward(&h);
  EXPECT_NEAR(h.at(0, 0), std::tanh(0.5), 1e-12);
  Matrix g(1, 2, 1.0);
  TanhBackward(h, &g);
  double expected = 1.0 - std::tanh(0.5) * std::tanh(0.5);
  EXPECT_NEAR(g.at(0, 0), expected, 1e-12);
  EXPECT_NEAR(g.at(0, 1), expected, 1e-12);
}

TEST(ActivationTest, ReluMask) {
  Matrix h = Batch({{1.5, -2.0, 0.0}});
  ReluForward(&h);
  EXPECT_EQ(h.at(0, 0), 1.5);
  EXPECT_EQ(h.at(0, 1), 0.0);
  Matrix g(1, 3, 1.0);
  ReluBackward(h, &g);
  EXPECT_EQ(g.at(0, 0), 1.0);
  EXPECT_EQ(g.at(0, 1), 0.0);
  EXPECT_EQ(g.at(0, 2), 0.0);  // x == 0 counts as inactive
}

TEST(AdamTest, MinimizesQuadratic) {
  std::vector<double> params = {5.0, -3.0};
  std::vector<double> grads(2, 0.0);
  AdamOptimizer adam(0.1);
  adam.Register(&params, &grads);
  for (int step = 0; step < 500; ++step) {
    grads[0] = 2.0 * params[0];
    grads[1] = 2.0 * params[1];
    adam.Step();
  }
  EXPECT_NEAR(params[0], 0.0, 0.05);
  EXPECT_NEAR(params[1], 0.0, 0.05);
  EXPECT_EQ(adam.step_count(), 500);
}

TEST(MlpTest, ForwardShapes) {
  Rng rng(5);
  Mlp mlp(4, {8, 8}, 3, OutputActivation::kTanh, &rng);
  std::vector<double> y = mlp.Forward(std::vector<double>{0.1, 0.2, 0.3, 0.4});
  ASSERT_EQ(y.size(), 3u);
  for (double v : y) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
  Matrix batch = mlp.Forward(Matrix(5, 4, 0.25));
  EXPECT_EQ(batch.rows(), 5);
  EXPECT_EQ(batch.cols(), 3);
}

TEST(MlpTest, OneSampleForwardIsAOneRowBatch) {
  Rng rng(8);
  Mlp mlp(3, {6, 6}, 2, OutputActivation::kTanh, &rng);
  Matrix batch = Batch({{0.1, -0.4, 0.8}, {0.7, 0.2, -0.9}});
  Matrix ys = mlp.Forward(batch);
  MlpTape tape;
  Matrix taped = mlp.Forward(batch, &tape);
  EXPECT_TRUE(SameBits(ys, taped));
  for (int i = 0; i < 2; ++i) {
    std::vector<double> row(batch.Row(i), batch.Row(i) + 3);
    std::vector<double> y = mlp.Forward(row);
    EXPECT_EQ(std::memcmp(y.data(), ys.Row(i), sizeof(double) * 2), 0);
  }
}

TEST(MlpTest, LearnsSimpleRegression) {
  Rng rng(6);
  Mlp mlp(1, {16}, 1, OutputActivation::kLinear, &rng);
  AdamOptimizer adam(0.01);
  mlp.RegisterParams(&adam);
  // Fit y = 2x - 1 on [0,1], one minibatch of four per step.
  MlpTape tape;
  for (int epoch = 0; epoch < 500; ++epoch) {
    Matrix x(4, 1), grad(4, 1);
    for (double& v : x.data()) v = rng.Uniform();
    const Matrix& y = mlp.Forward(x, &tape);
    for (int i = 0; i < 4; ++i) {
      grad.at(i, 0) = 2.0 * (y.at(i, 0) - (2.0 * x.at(i, 0) - 1.0)) / 4.0;
    }
    mlp.ZeroGrad();
    mlp.Backward(tape, std::move(grad), ParamGrads::kAccumulate);
    adam.Step();
  }
  EXPECT_NEAR(mlp.Forward(std::vector<double>{0.0})[0], -1.0, 0.15);
  EXPECT_NEAR(mlp.Forward(std::vector<double>{0.5})[0], 0.0, 0.15);
  EXPECT_NEAR(mlp.Forward(std::vector<double>{1.0})[0], 1.0, 0.15);
}

TEST(MlpTest, CopyAndSoftUpdate) {
  Rng rng(7);
  Mlp a(2, {4}, 1, OutputActivation::kLinear, &rng);
  Mlp b(2, {4}, 1, OutputActivation::kLinear, &rng);
  std::vector<double> x = {0.3, 0.7};
  b.CopyFrom(a);
  EXPECT_DOUBLE_EQ(a.Forward(x)[0], b.Forward(x)[0]);

  Mlp c(2, {4}, 1, OutputActivation::kLinear, &rng);
  double before = c.Forward(x)[0];
  c.SoftUpdateFrom(a, 0.5);
  double after = c.Forward(x)[0];
  // Soft update moved the output toward a's (not a full copy).
  EXPECT_NE(after, before);
  EXPECT_NE(after, a.Forward(x)[0]);
  // Repeated soft updates converge to a.
  for (int i = 0; i < 200; ++i) c.SoftUpdateFrom(a, 0.2);
  EXPECT_NEAR(c.Forward(x)[0], a.Forward(x)[0], 1e-6);
}

// Property: batched MLP backprop against numerical differentiation for
// several seeds. The loss is the sum of the outputs over a batch of
// four samples, so each sample's input gradient is its own.
class MlpGradCheck : public ::testing::TestWithParam<int> {};

TEST_P(MlpGradCheck, BatchedBackpropMatchesNumericalInputGradient) {
  Rng rng(GetParam());
  Mlp mlp(3, {5}, 1, OutputActivation::kTanh, &rng);
  Matrix x(4, 3);
  for (double& v : x.data()) v = rng.Uniform(-1.0, 1.0);
  MlpTape tape;
  mlp.Forward(x, &tape);
  Matrix grad_in;
  mlp.Backward(tape, Matrix(4, 1, 1.0), ParamGrads::kAccumulate, &grad_in);
  ASSERT_EQ(grad_in.rows(), 4);
  ASSERT_EQ(grad_in.cols(), 3);
  const double eps = 1e-6;
  for (int i = 0; i < 4; ++i) {
    for (int c = 0; c < 3; ++c) {
      std::vector<double> xp(x.Row(i), x.Row(i) + 3), xm = xp;
      xp[c] += eps;
      xm[c] -= eps;
      double numeric = (mlp.Forward(xp)[0] - mlp.Forward(xm)[0]) / (2 * eps);
      EXPECT_NEAR(grad_in.at(i, c), numeric, 1e-4);
    }
  }
}

// Property: one batched Backward accumulates the same parameter
// gradients, bit for bit, as one-row Backwards run sample by sample.
// The gradients are compared through an Adam step, which is a fixed
// function of them.
TEST_P(MlpGradCheck, BatchedBackwardEqualsSampleAtATimeBitForBit) {
  Rng init_a(GetParam()), init_b(GetParam());
  Mlp batched(4, {7, 6}, 3, OutputActivation::kTanh, &init_a);
  Mlp sequential(4, {7, 6}, 3, OutputActivation::kTanh, &init_b);
  AdamOptimizer adam_a, adam_b;
  batched.RegisterParams(&adam_a);
  sequential.RegisterParams(&adam_b);
  Rng rng(GetParam() + 100);
  Matrix x(5, 4), g(5, 3);
  for (double& v : x.data()) v = rng.Uniform(-1.0, 1.0);
  for (double& v : g.data()) v = rng.Uniform(-1.0, 1.0);

  MlpTape tape;
  batched.ZeroGrad();
  batched.Forward(x, &tape);
  batched.Backward(tape, g, ParamGrads::kAccumulate);
  adam_a.Step();

  sequential.ZeroGrad();
  for (int i = 0; i < 5; ++i) {
    Matrix xi(1, 4), gi(1, 3);
    std::memcpy(xi.Row(0), x.Row(i), sizeof(double) * 4);
    std::memcpy(gi.Row(0), g.Row(i), sizeof(double) * 3);
    sequential.Forward(xi, &tape);
    sequential.Backward(tape, gi, ParamGrads::kAccumulate);
  }
  adam_b.Step();

  EXPECT_TRUE(SameBits(batched.Forward(x), sequential.Forward(x)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MlpGradCheck, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Elementwise contract (src/common/lanes.h): every lane pass against the
// scalar loop it replaced, written out here, bit for bit. The lengths
// put whole lane groups, short tails and both together in play.
// ---------------------------------------------------------------------------

constexpr size_t kContractLengths[] = {1, 7, 8, 9, 17, 6992};

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Bits must match, except that two NaNs always match: which of two NaN
// operands a product propagates depends on the operand order the
// compiler picks, which IEEE 754 leaves open.
void ExpectSameBits(const double* got, const double* want, size_t count,
                    const std::string& where, bool any_nan = false) {
  for (size_t k = 0; k < count; ++k) {
    if (any_nan && std::isnan(got[k]) && std::isnan(want[k])) continue;
    ASSERT_EQ(Bits(got[k]), Bits(want[k]))
        << where << " element " << k << ": " << got[k] << " vs " << want[k];
  }
}

// Values spread over many binades, with about half the elements drawn
// from -0.0, +0.0, NaN, +-Inf, subnormals and +-1 instead.
double SpecialOrSpread(Rng* rng) {
  const double kSpecial[] = {-0.0,
                             0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             1e-310,
                             -1e-310,
                             1.0,
                             -1.0};
  constexpr int kCount = sizeof(kSpecial) / sizeof(kSpecial[0]);
  if (rng->Uniform() < 0.5) return kSpecial[rng->UniformInt(0, kCount - 1)];
  return rng->Uniform(-1.0, 1.0) *
         std::ldexp(1.0, static_cast<int>(rng->UniformInt(-30, 30)));
}

// A rows x cols matrix of SpecialOrSpread values. With `padded`, the
// matrix is grown from a narrower shape so its stride exceeds cols,
// and the padding holds a sentinel the passes must not touch.
Matrix SpecialMatrix(int rows, int cols, bool padded, Rng* rng) {
  Matrix m(rows, padded ? cols - 1 : cols);
  if (padded) {
    m.ResizePreserve(rows, cols);
    std::fill(m.data().begin(), m.data().end(), 12345.0);
  }
  for (int i = 0; i < rows; ++i) {
    for (int c = 0; c < cols; ++c) m.at(i, c) = SpecialOrSpread(rng);
  }
  return m;
}

// Checks that the cells between cols() and the row pitch of a padded
// SpecialMatrix still hold the sentinel.
void ExpectPaddingUntouched(const Matrix& m) {
  ASSERT_GE(m.rows(), 2);
  int stride = static_cast<int>(m.Row(1) - m.Row(0));
  ASSERT_GT(stride, m.cols());
  for (int i = 0; i < m.rows(); ++i) {
    for (int c = m.cols(); c < stride; ++c) {
      ASSERT_EQ(m.Row(i)[c], 12345.0) << "row " << i << " col " << c;
    }
  }
}

struct Shape {
  int rows;
  int cols;
  bool padded;
};

std::vector<Shape> ContractShapes() {
  std::vector<Shape> shapes;
  for (size_t n : kContractLengths) {
    shapes.push_back({1, static_cast<int>(n), false});
  }
  for (int cols : {64, 16, 1}) shapes.push_back({32, cols, false});
  shapes.push_back({5, 17, true});
  return shapes;
}

std::string Where(const char* pass, const Shape& shape, int row) {
  return std::string(pass) + " " + std::to_string(shape.rows) + "x" +
         std::to_string(shape.cols) + (shape.padded ? " padded" : "") +
         " row " + std::to_string(row);
}

TEST(ElementwiseContractTest, ReluForwardMatchesScalarSelect) {
  Rng rng(11);
  for (const Shape& shape : ContractShapes()) {
    Matrix h = SpecialMatrix(shape.rows, shape.cols, shape.padded, &rng);
    std::vector<double> before = h.data();
    ReluForward(&h);
    for (int i = 0; i < shape.rows; ++i) {
      std::vector<double> want(h.Row(i), h.Row(i) + shape.cols);
      const double* x = before.data() + (h.Row(i) - h.data().data());
      for (int c = 0; c < shape.cols; ++c) want[c] = x[c] > 0.0 ? x[c] : 0.0;
      ExpectSameBits(h.Row(i), want.data(), want.size(),
                     Where("relu", shape, i));
    }
    if (shape.padded) ExpectPaddingUntouched(h);
  }
}

TEST(ElementwiseContractTest, ReluBackwardMatchesScalarSelect) {
  Rng rng(12);
  for (const Shape& shape : ContractShapes()) {
    Matrix y = SpecialMatrix(shape.rows, shape.cols, shape.padded, &rng);
    Matrix g = SpecialMatrix(shape.rows, shape.cols, shape.padded, &rng);
    Matrix want = g;
    for (int i = 0; i < shape.rows; ++i) {
      for (int c = 0; c < shape.cols; ++c) {
        want.at(i, c) = y.at(i, c) > 0.0 ? g.at(i, c) : 0.0;
      }
    }
    ReluBackward(y, &g);
    for (int i = 0; i < shape.rows; ++i) {
      ExpectSameBits(g.Row(i), want.Row(i), shape.cols,
                     Where("relu'", shape, i));
    }
    if (shape.padded) ExpectPaddingUntouched(g);
  }
}

TEST(ElementwiseContractTest, TanhBackwardMatchesScalarProduct) {
  Rng rng(13);
  for (const Shape& shape : ContractShapes()) {
    Matrix y = SpecialMatrix(shape.rows, shape.cols, shape.padded, &rng);
    Matrix g = SpecialMatrix(shape.rows, shape.cols, shape.padded, &rng);
    Matrix want = g;
    for (int i = 0; i < shape.rows; ++i) {
      for (int c = 0; c < shape.cols; ++c) {
        want.at(i, c) *= 1.0 - y.at(i, c) * y.at(i, c);
      }
    }
    TanhBackward(y, &g);
    for (int i = 0; i < shape.rows; ++i) {
      ExpectSameBits(g.Row(i), want.Row(i), shape.cols,
                     Where("tanh'", shape, i), /*any_nan=*/true);
    }
    if (shape.padded) ExpectPaddingUntouched(g);
  }
}

// The scalar Adam update, one element at a time.
struct ScalarAdam {
  double lr = 1e-3, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  long t = 0;

  void Step(std::vector<double>* p, const std::vector<double>& g,
            std::vector<double>* m, std::vector<double>* v) const {
    double bias1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    double bias2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    for (size_t i = 0; i < p->size(); ++i) {
      (*m)[i] = beta1 * (*m)[i] + (1.0 - beta1) * g[i];
      (*v)[i] = beta2 * (*v)[i] + (1.0 - beta2) * g[i] * g[i];
      double m_hat = (*m)[i] / bias1;
      double v_hat = (*v)[i] / bias2;
      (*p)[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
  }
};

TEST(ElementwiseContractTest, AdamStepMatchesScalarUpdate) {
  const size_t kSizes[] = {1, 7, 8, 9, 6992};
  constexpr int kArrays = sizeof(kSizes) / sizeof(kSizes[0]);
  Rng rng(14);
  std::vector<std::vector<double>> params(kArrays), grads(kArrays);
  AdamOptimizer adam;
  for (int a = 0; a < kArrays; ++a) {
    params[a].resize(kSizes[a]);
    grads[a].resize(kSizes[a]);
    for (double& p : params[a]) p = rng.Uniform(-1.0, 1.0);
    adam.Register(&params[a], &grads[a]);
  }
  std::vector<std::vector<double>> want = params, m(kArrays), v(kArrays);
  for (int a = 0; a < kArrays; ++a) {
    m[a].assign(kSizes[a], 0.0);
    v[a].assign(kSizes[a], 0.0);
  }
  ScalarAdam scalar;
  for (int step = 0; step < 5; ++step) {
    // Steps 0 and 3 see all-zero gradients: the first one leaves both
    // moments at zero, so the update divides 0 by eps.
    bool zero = step == 0 || step == 3;
    for (auto& g : grads) {
      for (double& x : g) {
        x = zero ? 0.0
                 : rng.Uniform(-1.0, 1.0) *
                       std::ldexp(1.0, static_cast<int>(
                                           rng.UniformInt(-30, 10)));
      }
    }
    adam.Step();
    ++scalar.t;
    for (int a = 0; a < kArrays; ++a) {
      scalar.Step(&want[a], grads[a], &m[a], &v[a]);
      ExpectSameBits(params[a].data(), want[a].data(), kSizes[a],
                     "adam size " + std::to_string(kSizes[a]) + " step " +
                         std::to_string(step));
    }
  }
}

TEST(ElementwiseContractTest, SoftUpdateMatchesScalarBlend) {
  // Mlp builds its layers from the Rng in order, so layers built the
  // same way from the same seed are a replica of its parameters.
  const int kIn = 6, kOut = 3;
  const std::vector<int> kHidden = {17, 9};
  auto replica = [&](uint64_t seed) {
    Rng rng(seed);
    std::vector<LinearLayer> layers;
    int prev = kIn;
    for (int h : kHidden) {
      layers.emplace_back(prev, h, &rng);
      prev = h;
    }
    layers.emplace_back(prev, kOut, &rng);
    return layers;
  };
  auto run = [&](std::vector<LinearLayer>& layers, const Matrix& x) {
    Matrix h = x;
    for (size_t i = 0; i < layers.size(); ++i) {
      h = layers[i].Forward(h);
      if (i + 1 < layers.size()) ReluForward(&h);
    }
    TanhForward(&h);
    return h;
  };
  auto blend = [](const std::vector<double>& src, double tau,
                  std::vector<double>* dst) {
    for (size_t k = 0; k < dst->size(); ++k) {
      (*dst)[k] = tau * src[k] + (1.0 - tau) * (*dst)[k];
    }
  };
  Rng data(15);
  Matrix x(32, kIn);
  for (double& v : x.data()) v = data.Uniform(-1.0, 1.0);
  for (double tau : {0.01, 1.0}) {
    Rng rng_src(21), rng_dst(22);
    Mlp source(kIn, kHidden, kOut, OutputActivation::kTanh, &rng_src);
    Mlp target(kIn, kHidden, kOut, OutputActivation::kTanh, &rng_dst);
    std::vector<LinearLayer> want_src = replica(21), want = replica(22);
    ASSERT_TRUE(SameBits(target.Forward(x), run(want, x)));
    for (int round = 0; round < 3; ++round) {
      target.SoftUpdateFrom(source, tau);
      for (size_t i = 0; i < want.size(); ++i) {
        blend(want_src[i].weights().data(), tau, &want[i].weights().data());
        blend(want_src[i].bias(), tau, &want[i].bias());
      }
      EXPECT_TRUE(SameBits(target.Forward(x), run(want, x)))
          << "tau " << tau << " round " << round;
    }
    if (tau == 1.0) {
      EXPECT_TRUE(SameBits(target.Forward(x), source.Forward(x)));
    }
  }
}

}  // namespace
}  // namespace llamatune
