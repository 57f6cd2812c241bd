#include "tfb/methods/ml/random_forest.h"

#include <algorithm>

#include "tfb/base/check.h"
#include "tfb/methods/serialize_util.h"
#include "tfb/methods/ml/window.h"

namespace tfb::methods {

void RandomForestForecaster::Fit(const ts::TimeSeries& train) {
  if (options_.lookback == 0) options_.lookback = 16;
  while (options_.lookback > 1 && train.length() < options_.lookback + 2) {
    options_.lookback /= 2;
  }
  const WindowedData data =
      MakeWindows(train, options_.lookback, /*horizon=*/1,
                  options_.subtract_last);
  TFB_CHECK_MSG(data.x.rows() > 0, "training series too short");
  const std::vector<double> targets = data.y.ColVector(0);

  TreeOptions tree_options = options_.tree;
  if (tree_options.max_features == 0) {
    tree_options.max_features =
        std::max<std::size_t>(1, options_.lookback / 3);
  }
  stats::Rng rng(options_.seed);
  trees_.assign(options_.num_trees, DecisionTree());
  const std::size_t n = data.x.rows();
  const std::size_t sample =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   options_.bootstrap_fraction * n));
  TreeWorkspace workspace(data.x);
  std::vector<std::size_t> indices(sample);
  for (auto& tree : trees_) {
    for (std::size_t i = 0; i < sample; ++i) indices[i] = rng.UniformInt(n);
    tree.Fit(targets, indices, tree_options, &rng, &workspace);
  }
}

ts::TimeSeries RandomForestForecaster::Forecast(const ts::TimeSeries& history,
                                                std::size_t horizon) {
  TFB_CHECK(!trees_.empty());
  const std::size_t n = history.num_variables();
  linalg::Matrix out(horizon, n);
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<double> channel = history.Column(v);
    for (std::size_t h = 0; h < horizon; ++h) {
      const ts::TimeSeries hist_ts = ts::TimeSeries::Univariate(channel);
      const WindowFeatures wf =
          TailWindow(hist_ts, 0, options_.lookback, options_.subtract_last);
      double pred = 0.0;
      for (const DecisionTree& tree : trees_) {
        pred += tree.Predict(wf.features.data());
      }
      pred = pred / static_cast<double>(trees_.size()) + wf.last_value;
      out(h, v) = pred;
      channel.push_back(pred);
    }
  }
  return ts::TimeSeries(std::move(out));
}


base::Status RandomForestForecaster::SaveFitted(base::BlobWriter* blob) const {
  blob->PutU8(1);
  blob->PutU64(options_.lookback);  // Fit-derived.
  blob->PutU64(trees_.size());
  for (const DecisionTree& tree : trees_) tree.Save(blob);
  return base::Status::Ok();
}

base::Status RandomForestForecaster::LoadFitted(base::BlobReader* blob) {
  TFB_RETURN_IF_ERROR(detail::CheckVersion(blob, 1, "RandomForest"));
  std::uint64_t lookback = 0;
  TFB_RETURN_IF_ERROR(blob->ReadU64(&lookback));
  std::uint64_t count = 0;
  TFB_RETURN_IF_ERROR(blob->ReadU64(&count));
  if (count > blob->remaining() / 8) {
    return base::Status::InvalidInput("blob truncated: forest of " +
                                      std::to_string(count) + " trees");
  }
  std::vector<DecisionTree> trees(static_cast<std::size_t>(count));
  for (DecisionTree& tree : trees) TFB_RETURN_IF_ERROR(tree.Load(blob));
  options_.lookback = static_cast<std::size_t>(lookback);
  trees_ = std::move(trees);
  return base::Status::Ok();
}

}  // namespace tfb::methods
