// Differential test of the TCN. `ReferenceConvStack` is the textbook
// dilated causal convolution stack: every layer computes every time step.
// The production CausalConvStack computes only the steps the final output
// reads. Both must return the same outputs, input gradients and parameter
// gradients bit for bit, over random shapes that include kernels of 1,
// dilations wider than the window and non-power-of-two lengths.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "tfb/base/check.h"
#include "tfb/linalg/matrix.h"
#include "tfb/nn/conv.h"
#include "tfb/nn/module.h"
#include "tfb/stats/rng.h"

namespace tfb {
namespace {

using linalg::Matrix;

// Full-sequence dilated causal conv stack with ReLU and residuals. Draws
// its initial weights exactly as CausalConvStack does.
class ReferenceConvStack : public nn::Module {
 public:
  ReferenceConvStack(std::size_t seq_len, std::size_t channels,
                     std::vector<std::size_t> dilations, std::size_t kernel,
                     stats::Rng& rng)
      : seq_len_(seq_len), channels_(channels), kernel_(kernel) {
    std::size_t in_channels = 1;
    for (std::size_t d : dilations) {
      const double scale =
          std::sqrt(2.0 / static_cast<double>(in_channels * kernel));
      Matrix w(channels, in_channels * kernel);
      for (std::size_t i = 0; i < w.size(); ++i) {
        w.data()[i] = rng.Gaussian(0.0, scale);
      }
      layers_.push_back(Layer{nn::Parameter(std::move(w)),
                              nn::Parameter(Matrix(1, channels)), in_channels,
                              d, in_channels == channels});
      in_channels = channels;
    }
  }

  Matrix Forward(const Matrix& x, bool) override {
    TFB_CHECK(x.cols() == seq_len_);
    const std::size_t batch = x.rows();
    inputs_.clear();
    preacts_.clear();
    Matrix current = x;
    for (const Layer& layer : layers_) {
      inputs_.push_back(current);
      Matrix pre(batch, channels_ * seq_len_);
      for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t co = 0; co < channels_; ++co) {
          for (std::size_t t = 0; t < seq_len_; ++t) {
            double sum = layer.bias.value(0, co);
            for (std::size_t ci = 0; ci < layer.in_channels; ++ci) {
              for (std::size_t j = 0; j < kernel_; ++j) {
                if (j * layer.dilation > t) continue;
                sum += layer.weight.value(co, ci * kernel_ + j) *
                       current(b, ci * seq_len_ + t - j * layer.dilation);
              }
            }
            pre(b, co * seq_len_ + t) = sum;
          }
        }
      }
      preacts_.push_back(pre);
      Matrix activated = pre;
      for (std::size_t i = 0; i < activated.size(); ++i) {
        if (activated.data()[i] < 0.0) activated.data()[i] = 0.0;
      }
      if (layer.residual) activated += current;
      current = std::move(activated);
    }
    Matrix out(batch, channels_);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t c = 0; c < channels_; ++c) {
        out(b, c) = current(b, c * seq_len_ + seq_len_ - 1);
      }
    }
    return out;
  }

  Matrix Backward(const Matrix& grad_output) override {
    const std::size_t batch = grad_output.rows();
    Matrix grad(batch, channels_ * seq_len_);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t c = 0; c < channels_; ++c) {
        grad(b, c * seq_len_ + seq_len_ - 1) = grad_output(b, c);
      }
    }
    for (std::size_t li = layers_.size(); li-- > 0;) {
      Layer& layer = layers_[li];
      Matrix grad_input(batch, layer.in_channels * seq_len_);
      if (layer.residual) grad_input = grad;
      Matrix grad_pre = grad;
      for (std::size_t i = 0; i < grad_pre.size(); ++i) {
        if (preacts_[li].data()[i] <= 0.0) grad_pre.data()[i] = 0.0;
      }
      for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t co = 0; co < channels_; ++co) {
          double gb = 0.0;
          for (std::size_t t = 0; t < seq_len_; ++t) {
            const double g = grad_pre(b, co * seq_len_ + t);
            if (g == 0.0) continue;
            gb += g;
            for (std::size_t ci = 0; ci < layer.in_channels; ++ci) {
              for (std::size_t j = 0; j < kernel_; ++j) {
                if (j * layer.dilation > t) continue;
                const std::size_t src = ci * seq_len_ + t - j * layer.dilation;
                layer.weight.grad(co, ci * kernel_ + j) +=
                    g * inputs_[li](b, src);
                grad_input(b, src) +=
                    g * layer.weight.value(co, ci * kernel_ + j);
              }
            }
          }
          layer.bias.grad(0, co) += gb;
        }
      }
      grad = std::move(grad_input);
    }
    return grad;
  }

  void CollectParameters(std::vector<nn::Parameter*>* out) override {
    for (Layer& layer : layers_) {
      out->push_back(&layer.weight);
      out->push_back(&layer.bias);
    }
  }

 private:
  struct Layer {
    nn::Parameter weight;
    nn::Parameter bias;
    std::size_t in_channels;
    std::size_t dilation;
    bool residual;
  };

  std::size_t seq_len_;
  std::size_t channels_;
  std::size_t kernel_;
  std::vector<Layer> layers_;
  std::vector<Matrix> inputs_;
  std::vector<Matrix> preacts_;
};

void ExpectBitEqual(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << what;
}

Matrix RandomMatrix(std::size_t rows, std::size_t cols, stats::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian(0, 1);
  return m;
}

TEST(TcnOracle, ReceptiveFieldStackMatchesFullSequenceStack) {
  stats::Rng shapes(20240);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t seq_len = 1 + shapes.UniformInt(64);
    const std::size_t channels = 1 + shapes.UniformInt(16);
    const std::size_t kernel = 1 + shapes.UniformInt(4);
    const std::size_t batch = 1 + shapes.UniformInt(9);
    std::vector<std::size_t> dilations(1 + shapes.UniformInt(6));
    for (std::size_t& d : dilations) {
      // Mostly powers of two as the TCN forecaster builds them, sometimes
      // any width up to past the window.
      d = shapes.UniformInt(3) == 0 ? 1 + shapes.UniformInt(seq_len + 4)
                                    : std::size_t{1} << shapes.UniformInt(6);
    }
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << " L=" << seq_len << " C=" << channels
                 << " k=" << kernel << " B=" << batch
                 << " layers=" << dilations.size());

    stats::Rng init_a(trial), init_b(trial);
    nn::CausalConvStack stack(seq_len, channels, dilations, kernel, init_a);
    ReferenceConvStack reference(seq_len, channels, dilations, kernel, init_b);
    std::vector<nn::Parameter*> got_params, want_params;
    stack.CollectParameters(&got_params);
    reference.CollectParameters(&want_params);
    ASSERT_EQ(got_params.size(), want_params.size());
    // Non-zero biases, so that some pre-activations of both signs appear.
    for (std::size_t p = 0; p < got_params.size(); ++p) {
      if (p % 2 == 1) {
        got_params[p]->value = RandomMatrix(1, channels, shapes);
        want_params[p]->value = got_params[p]->value;
      }
    }

    // Two rounds, so gradient accumulation into non-zero buffers is covered.
    for (int round = 0; round < 2; ++round) {
      const Matrix x = RandomMatrix(batch, seq_len, shapes);
      const Matrix grad_out = RandomMatrix(batch, channels, shapes);
      ExpectBitEqual(stack.Forward(x, true), reference.Forward(x, true),
                     "forward");
      ExpectBitEqual(stack.Backward(grad_out), reference.Backward(grad_out),
                     "input gradient");
      for (std::size_t p = 0; p < got_params.size(); ++p) {
        ExpectBitEqual(got_params[p]->grad, want_params[p]->grad,
                       p % 2 == 0 ? "weight gradient" : "bias gradient");
      }
    }
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace tfb
