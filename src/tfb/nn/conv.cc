#include "tfb/nn/conv.h"

#include <algorithm>
#include <cmath>

#include "tfb/base/check.h"

namespace tfb::nn {

CausalConvStack::CausalConvStack(std::size_t seq_len, std::size_t channels,
                                 std::vector<std::size_t> dilations,
                                 std::size_t kernel, stats::Rng& rng)
    : seq_len_(seq_len), channels_(channels), kernel_(kernel) {
  TFB_CHECK(seq_len >= 1 && !dilations.empty() && kernel >= 1);
  std::size_t in_channels = 1;
  for (std::size_t d : dilations) {
    const double scale =
        std::sqrt(2.0 / static_cast<double>(in_channels * kernel));
    linalg::Matrix w(channels, in_channels * kernel);
    for (std::size_t i = 0; i < w.size(); ++i) {
      w.data()[i] = rng.Gaussian(0.0, scale);
    }
    layers_.push_back(Layer{Parameter(std::move(w)),
                            Parameter(linalg::Matrix(1, channels)),
                            in_channels, d, in_channels == channels});
    in_channels = channels;
  }
  // Walk down from the top layer's last step: a layer needs every input
  // step that a needed output step reads, and that input is the output of
  // the layer below.
  positions_.resize(layers_.size());
  std::vector<bool> needed(seq_len_, false);
  needed[seq_len_ - 1] = true;
  for (std::size_t li = layers_.size(); li-- > 0;) {
    for (std::size_t t = 0; t < seq_len_; ++t) {
      if (needed[t]) positions_[li].push_back(t);
    }
    std::fill(needed.begin(), needed.end(), false);
    for (std::size_t t : positions_[li]) {
      for (std::size_t j = 0; j < kernel_; ++j) {
        if (j * layers_[li].dilation <= t) {
          needed[t - j * layers_[li].dilation] = true;
        }
      }
    }
  }
}

linalg::Matrix CausalConvStack::Forward(const linalg::Matrix& x, bool) {
  TFB_CHECK(x.cols() == seq_len_);
  const std::size_t batch = x.rows();
  inputs_cache_.assign(1, x);  // first layer Cin=1
  preact_cache_.clear();

  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    const linalg::Matrix& current = inputs_cache_.back();
    linalg::Matrix pre(batch, channels_ * seq_len_);
    linalg::Matrix activated(batch, channels_ * seq_len_);
    for (std::size_t b = 0; b < batch; ++b) {
      const double* in = current.row(b);
      double* out = pre.row(b);
      double* act = activated.row(b);
      for (std::size_t co = 0; co < channels_; ++co) {
        const double* w = layer.weight.value.row(co);
        const double bias = layer.bias.value(0, co);
        for (std::size_t t : positions_[li]) {
          double sum = bias;
          for (std::size_t ci = 0; ci < layer.in_channels; ++ci) {
            for (std::size_t j = 0; j < kernel_; ++j) {
              const std::ptrdiff_t src =
                  static_cast<std::ptrdiff_t>(t) -
                  static_cast<std::ptrdiff_t>(j * layer.dilation);
              if (src < 0) continue;
              sum += w[ci * kernel_ + j] * in[ci * seq_len_ + src];
            }
          }
          out[co * seq_len_ + t] = sum;
          // ReLU + residual.
          double a = sum < 0.0 ? 0.0 : sum;
          if (layer.residual) a += in[co * seq_len_ + t];
          act[co * seq_len_ + t] = a;
        }
      }
    }
    preact_cache_.push_back(std::move(pre));
    inputs_cache_.push_back(std::move(activated));  // next layer's input
  }

  // Final features: last time-step values of every channel.
  const linalg::Matrix& top = inputs_cache_.back();
  linalg::Matrix out(batch, channels_);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < channels_; ++c) {
      out(b, c) = top(b, c * seq_len_ + seq_len_ - 1);
    }
  }
  return out;
}

linalg::Matrix CausalConvStack::Backward(const linalg::Matrix& grad_output) {
  const std::size_t batch = grad_output.rows();
  // Seed gradient at the last time step of the top activations.
  linalg::Matrix grad(batch, channels_ * seq_len_);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < channels_; ++c) {
      grad(b, c * seq_len_ + seq_len_ - 1) = grad_output(b, c);
    }
  }

  // The gradient is zero at every step outside positions_[li], so only
  // those are visited.
  for (std::size_t li = layers_.size(); li-- > 0;) {
    Layer& layer = layers_[li];
    const linalg::Matrix& pre = preact_cache_[li];
    const linalg::Matrix& input = inputs_cache_[li];

    // Residual passes gradient straight through to the layer input.
    linalg::Matrix grad_input =
        layer.residual ? grad
                       : linalg::Matrix(batch, layer.in_channels * seq_len_);

    for (std::size_t b = 0; b < batch; ++b) {
      const double* in = input.row(b);
      const double* pr = pre.row(b);
      const double* gr = grad.row(b);
      double* gi = grad_input.row(b);
      for (std::size_t co = 0; co < channels_; ++co) {
        const double* w = layer.weight.value.row(co);
        double* gw = layer.weight.grad.row(co);
        double gb = 0.0;
        for (std::size_t t : positions_[li]) {
          // ReLU mask on the conv path.
          const std::size_t at = co * seq_len_ + t;
          const double g = pr[at] <= 0.0 ? 0.0 : gr[at];
          if (g == 0.0) continue;
          gb += g;
          for (std::size_t ci = 0; ci < layer.in_channels; ++ci) {
            for (std::size_t j = 0; j < kernel_; ++j) {
              const std::ptrdiff_t src =
                  static_cast<std::ptrdiff_t>(t) -
                  static_cast<std::ptrdiff_t>(j * layer.dilation);
              if (src < 0) continue;
              gw[ci * kernel_ + j] += g * in[ci * seq_len_ + src];
              gi[ci * seq_len_ + src] += g * w[ci * kernel_ + j];
            }
          }
        }
        layer.bias.grad(0, co) += gb;
      }
    }
    grad = std::move(grad_input);
  }
  return grad;  // (B x 1*L) = gradient w.r.t. the scalar input windows
}

void CausalConvStack::CollectParameters(std::vector<Parameter*>* out) {
  for (Layer& layer : layers_) {
    out->push_back(&layer.weight);
    out->push_back(&layer.bias);
  }
}

}  // namespace tfb::nn
