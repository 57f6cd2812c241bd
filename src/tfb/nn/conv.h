#ifndef TFB_NN_CONV_H_
#define TFB_NN_CONV_H_

#include "tfb/nn/module.h"

namespace tfb::nn {

/// Stack of dilated causal 1-D convolutions with ReLU and residual
/// connections (the TCN of Bai et al. 2018, also the backbone of the
/// MICN-family forecaster). Input is a batch of scalar windows (B x L);
/// output is the feature vector at the final time step (B x channels),
/// which a Dense head maps to the forecast.
///
/// Only the final step is read, so each layer computes only the time steps
/// in that step's receptive field: the top layer one step, and each layer
/// below the steps its upper neighbour reads (at most `kernel` times as
/// many). Every other step of the cached activations stays zero, and so
/// does its gradient, which Backward therefore skips. Each computed value
/// is summed in the same order as a full-sequence pass, so the results are
/// bit-identical to one.
class CausalConvStack : public Module {
 public:
  /// `dilations` gives one layer per entry (e.g. {1, 2, 4, 8}); the
  /// receptive field is 1 + (kernel-1) * sum(dilations).
  CausalConvStack(std::size_t seq_len, std::size_t channels,
                  std::vector<std::size_t> dilations, std::size_t kernel,
                  stats::Rng& rng);

  linalg::Matrix Forward(const linalg::Matrix& x, bool training) override;
  linalg::Matrix Backward(const linalg::Matrix& grad_output) override;
  void CollectParameters(std::vector<Parameter*>* out) override;

 private:
  struct Layer {
    Parameter weight;  // (channels x in_channels*kernel)
    Parameter bias;    // (1 x channels)
    std::size_t in_channels;
    std::size_t dilation;
    bool residual;
  };

  std::size_t seq_len_;
  std::size_t channels_;
  std::size_t kernel_;
  std::vector<Layer> layers_;
  // positions_[li]: ascending time steps of layer li's output that the
  // top layer's final step depends on. Fixed by the shape, so built once.
  std::vector<std::vector<std::size_t>> positions_;

  // Caches: per-layer input (B x in_channels*L), then the top activations,
  // and per-layer pre-activation (B x channels*L).
  std::vector<linalg::Matrix> inputs_cache_;
  std::vector<linalg::Matrix> preact_cache_;
};

}  // namespace tfb::nn

#endif  // TFB_NN_CONV_H_
