#include "tfb/methods/ml/gradient_boosting.h"

#include <algorithm>

#include "tfb/base/check.h"
#include "tfb/methods/serialize_util.h"
#include "tfb/methods/ml/window.h"
#include "tfb/stats/descriptive.h"

namespace tfb::methods {

void GradientBoostingForecaster::Fit(const ts::TimeSeries& train) {
  if (options_.lookback == 0) options_.lookback = 16;
  while (options_.lookback > 1 && train.length() < options_.lookback + 2) {
    options_.lookback /= 2;
  }
  const WindowedData data =
      MakeWindows(train, options_.lookback, /*horizon=*/1,
                  options_.subtract_last);
  TFB_CHECK_MSG(data.x.rows() > 0, "training series too short");
  const std::vector<double> targets = data.y.ColVector(0);
  const std::size_t n = data.x.rows();

  base_prediction_ = stats::Mean(targets);
  std::vector<double> residuals(n);
  std::vector<double> predictions(n, base_prediction_);
  stats::Rng rng(options_.seed);
  trees_.clear();
  trees_.reserve(options_.num_rounds);
  const std::size_t sample = std::max<std::size_t>(
      2, static_cast<std::size_t>(options_.subsample * n));
  TreeWorkspace workspace(data.x);
  for (int round = 0; round < options_.num_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      residuals[i] = targets[i] - predictions[i];
    }
    std::vector<std::size_t> indices;
    if (sample >= n) {
      indices.resize(n);
      for (std::size_t i = 0; i < n; ++i) indices[i] = i;
    } else {
      const std::vector<std::size_t> perm = rng.Permutation(n);
      indices.assign(perm.begin(), perm.begin() + sample);
    }
    DecisionTree tree;
    tree.Fit(residuals, indices, options_.tree, &rng, &workspace);
    for (std::size_t i = 0; i < n; ++i) {
      predictions[i] +=
          options_.learning_rate * tree.Predict(data.x.row(i));
    }
    trees_.push_back(std::move(tree));
  }
}

ts::TimeSeries GradientBoostingForecaster::Forecast(
    const ts::TimeSeries& history, std::size_t horizon) {
  TFB_CHECK(!trees_.empty());
  const std::size_t n = history.num_variables();
  linalg::Matrix out(horizon, n);
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<double> channel = history.Column(v);
    for (std::size_t h = 0; h < horizon; ++h) {
      const ts::TimeSeries hist_ts = ts::TimeSeries::Univariate(channel);
      const WindowFeatures wf =
          TailWindow(hist_ts, 0, options_.lookback, options_.subtract_last);
      double pred = base_prediction_;
      for (const DecisionTree& tree : trees_) {
        pred += options_.learning_rate * tree.Predict(wf.features.data());
      }
      pred += wf.last_value;
      out(h, v) = pred;
      channel.push_back(pred);
    }
  }
  return ts::TimeSeries(std::move(out));
}


base::Status GradientBoostingForecaster::SaveFitted(
    base::BlobWriter* blob) const {
  blob->PutU8(1);
  blob->PutU64(options_.lookback);  // Fit-derived.
  blob->PutDouble(base_prediction_);
  blob->PutU64(trees_.size());
  for (const DecisionTree& tree : trees_) tree.Save(blob);
  return base::Status::Ok();
}

base::Status GradientBoostingForecaster::LoadFitted(base::BlobReader* blob) {
  TFB_RETURN_IF_ERROR(detail::CheckVersion(blob, 1, "XGB"));
  std::uint64_t lookback = 0;
  TFB_RETURN_IF_ERROR(blob->ReadU64(&lookback));
  double base_prediction = 0.0;
  TFB_RETURN_IF_ERROR(blob->ReadDouble(&base_prediction));
  std::uint64_t count = 0;
  TFB_RETURN_IF_ERROR(blob->ReadU64(&count));
  if (count > blob->remaining() / 8) {
    return base::Status::InvalidInput("blob truncated: ensemble of " +
                                      std::to_string(count) + " trees");
  }
  std::vector<DecisionTree> trees(static_cast<std::size_t>(count));
  for (DecisionTree& tree : trees) TFB_RETURN_IF_ERROR(tree.Load(blob));
  options_.lookback = static_cast<std::size_t>(lookback);
  base_prediction_ = base_prediction;
  trees_ = std::move(trees);
  return base::Status::Ok();
}

}  // namespace tfb::methods
