// Numerical gradient checks for every layer and network in tfb::nn.
//
// These are the load-bearing tests of the DL substrate: each check perturbs
// inputs and parameters and compares the analytic backward pass against
// central finite differences. A layer that passes here trains correctly.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "tfb/nn/attention.h"
#include "tfb/nn/conv.h"
#include "tfb/nn/gru.h"
#include "tfb/nn/module.h"
#include "tfb/nn/nets.h"

namespace tfb {
namespace {

using linalg::Matrix;

// Scalar loss used by all checks: L = sum_ij w_ij * out_ij with fixed
// pseudo-random weights, so dL/dout is a known constant matrix.
Matrix LossWeights(std::size_t rows, std::size_t cols) {
  Matrix w(rows, cols);
  double v = 0.3;
  for (std::size_t i = 0; i < w.size(); ++i) {
    v = std::fmod(v * 1.37 + 0.11, 1.0);
    w.data()[i] = v - 0.5;
  }
  return w;
}

double WeightedSum(const Matrix& out, const Matrix& w) {
  double sum = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    sum += out.data()[i] * w.data()[i];
  }
  return sum;
}

// Checks dL/dinput and dL/dparams of `module` on input `x` against central
// differences.
void CheckGradients(nn::Module& module, Matrix x, double tolerance = 1e-5) {
  const Matrix out = module.Forward(x, /*training=*/false);
  const Matrix lw = LossWeights(out.rows(), out.cols());

  // Analytic gradients.
  std::vector<nn::Parameter*> params;
  module.CollectParameters(&params);
  for (nn::Parameter* p : params) p->ZeroGrad();
  module.Forward(x, false);
  const Matrix grad_in = module.Backward(lw);

  const double eps = 1e-5;
  // Input gradient.
  for (std::size_t i = 0; i < x.size(); i += std::max<std::size_t>(1, x.size() / 17)) {
    const double orig = x.data()[i];
    x.data()[i] = orig + eps;
    const double up = WeightedSum(module.Forward(x, false), lw);
    x.data()[i] = orig - eps;
    const double down = WeightedSum(module.Forward(x, false), lw);
    x.data()[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(grad_in.data()[i], numeric,
                tolerance * (1.0 + std::fabs(numeric)))
        << "input grad mismatch at flat index " << i;
  }
  // Parameter gradients (sampled).
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    nn::Parameter* p = params[pi];
    const std::size_t step = std::max<std::size_t>(1, p->value.size() / 7);
    for (std::size_t i = 0; i < p->value.size(); i += step) {
      const double orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      const double up = WeightedSum(module.Forward(x, false), lw);
      p->value.data()[i] = orig - eps;
      const double down = WeightedSum(module.Forward(x, false), lw);
      p->value.data()[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(p->grad.data()[i], numeric,
                  tolerance * (1.0 + std::fabs(numeric)))
          << "param " << pi << " grad mismatch at flat index " << i;
    }
  }
}

Matrix RandomInput(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix x(rows, cols);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  return x;
}

TEST(GradCheck, Dense) {
  stats::Rng rng(1);
  nn::Dense layer(5, 3, rng);
  CheckGradients(layer, RandomInput(4, 5, 2));
}

TEST(GradCheck, Relu) {
  nn::Relu layer;
  // Keep inputs away from the kink at 0.
  Matrix x = RandomInput(3, 6, 3);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x.data()[i]) < 0.1) x.data()[i] += 0.2;
  }
  CheckGradients(layer, x);
}

TEST(GradCheck, Gelu) {
  nn::Gelu layer;
  CheckGradients(layer, RandomInput(3, 6, 4));
}

TEST(GradCheck, TanhLayer) {
  nn::Tanh layer;
  CheckGradients(layer, RandomInput(3, 6, 5));
}

TEST(GradCheck, LayerNorm) {
  nn::LayerNorm layer(6);
  CheckGradients(layer, RandomInput(4, 6, 6), 1e-4);
}

TEST(GradCheck, SequentialMlp) {
  stats::Rng rng(7);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(8, 10, rng));
  net.Add(std::make_unique<nn::Gelu>());
  net.Add(std::make_unique<nn::Dense>(10, 4, rng));
  CheckGradients(net, RandomInput(5, 8, 8));
}

TEST(GradCheck, SelfAttention) {
  stats::Rng rng(9);
  nn::SelfAttention layer(4, 3, rng);  // dim 4, 3 tokens
  CheckGradients(layer, RandomInput(6, 4, 10), 1e-4);  // batch of 2 samples
}

TEST(GradCheck, Gru) {
  stats::Rng rng(11);
  nn::GruLayer layer(7, 5, rng);  // seq len 7, hidden 5
  CheckGradients(layer, RandomInput(3, 7, 12), 1e-4);
}

TEST(GradCheck, CausalConvStack) {
  stats::Rng rng(13);
  nn::CausalConvStack layer(10, 4, {1, 2}, 3, rng);
  // Shift inputs so no pre-activation sits exactly on the ReLU kink.
  Matrix x = RandomInput(3, 10, 14);
  CheckGradients(layer, x, 1e-4);
  // Four layers over a non-power-of-two window: the lower layers compute
  // only part of the sequence, and the widest dilation reaches past its
  // start.
  nn::CausalConvStack deep(13, 3, {1, 2, 4, 8}, 3, rng);
  CheckGradients(deep, RandomInput(2, 13, 20), 1e-4);
}

TEST(GradCheck, DLinearNet) {
  stats::Rng rng(15);
  nn::DLinearNet net(12, 4, 5, rng);
  CheckGradients(net, RandomInput(3, 12, 16));
}

TEST(GradCheck, FixedLinearDft) {
  nn::FixedLinear layer(nn::DftFeatureMatrix(10, 3));
  CheckGradients(layer, RandomInput(4, 10, 17));
}

TEST(GradCheck, FixedLinearLegendre) {
  nn::FixedLinear layer(nn::LegendreFeatureMatrix(12, 4));
  CheckGradients(layer, RandomInput(4, 12, 18));
}

TEST(GradCheck, LegendreBasisIsNearOrthonormal) {
  // Legendre polynomials sampled on a uniform grid are close to orthogonal;
  // after unit-norm scaling the Gram matrix should be near identity.
  const Matrix w = nn::LegendreFeatureMatrix(200, 6);
  const Matrix gram = linalg::MatTMul(w, w);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(gram(i, i), 1.0, 1e-9);
    for (std::size_t j = i + 1; j < 6; ++j) {
      EXPECT_NEAR(gram(i, j), 0.0, 0.05) << i << "," << j;
    }
  }
}

TEST(GradCheck, PatchAttentionNet) {
  stats::Rng rng(19);
  nn::PatchAttentionNet net(12, 5, /*num_patches=*/4, /*model_dim=*/6, rng);
  CheckGradients(net, RandomInput(2, 12, 20), 5e-4);
}

TEST(GradCheck, CrossAttentionNet) {
  stats::Rng rng(21);
  nn::CrossAttentionNet net(/*seq_len=*/6, /*horizon=*/3, /*channels=*/4,
                            /*model_dim=*/5, rng);
  CheckGradients(net, RandomInput(2, 24, 22), 5e-4);
}

TEST(GradCheck, NBeatsNet) {
  stats::Rng rng(23);
  nn::NBeatsNet net(/*seq_len=*/8, /*horizon=*/3, /*blocks=*/2,
                    /*hidden=*/6, rng);
  // ReLU kinks: nudge inputs.
  CheckGradients(net, RandomInput(3, 8, 24), 2e-4);
}

TEST(GradCheck, DropoutIsIdentityInEval) {
  nn::Dropout layer(0.5, 42);
  const Matrix x = RandomInput(3, 5, 25);
  const Matrix out = layer.Forward(x, /*training=*/false);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(out.data()[i], x.data()[i]);
  }
}

TEST(GradCheck, DropoutMaskAppliedInTraining) {
  nn::Dropout layer(0.5, 42);
  const Matrix x(4, 8, 1.0);
  const Matrix out = layer.Forward(x, /*training=*/true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out.data()[i] == 0.0) {
      ++zeros;
    } else {
      EXPECT_DOUBLE_EQ(out.data()[i], 2.0);  // inverted scaling 1/(1-0.5)
    }
  }
  EXPECT_GT(zeros, 0u);
  EXPECT_LT(zeros, out.size());
}

TEST(GradCheck, CountParameters) {
  stats::Rng rng(31);
  nn::Dense layer(5, 3, rng);
  std::vector<nn::Parameter*> params;
  layer.CollectParameters(&params);
  EXPECT_EQ(nn::CountParameters(params), 5u * 3u + 3u);
}

}  // namespace
}  // namespace tfb
