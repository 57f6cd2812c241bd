#include <gtest/gtest.h>

#include <cmath>

#include "tfb/eval/metrics.h"
#include "tfb/methods/ml/decision_tree.h"
#include "tfb/methods/ml/gradient_boosting.h"
#include "tfb/methods/ml/linear_regression.h"
#include "tfb/methods/ml/random_forest.h"
#include "tfb/methods/ml/window.h"
#include "tfb/methods/naive.h"
#include "tfb/stats/rng.h"

namespace tfb::methods {
namespace {

ts::TimeSeries SineSeries(std::size_t n, std::size_t period, double noise,
                          std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t t = 0; t < n; ++t) {
    x[t] = 3.0 * std::sin(2.0 * M_PI * t / period) +
           rng.Gaussian(0.0, noise);
  }
  return ts::TimeSeries::Univariate(std::move(x));
}

double ForecastMae(Forecaster& model, const ts::TimeSeries& series,
                   std::size_t horizon) {
  const ts::TimeSeries history = series.Slice(0, series.length() - horizon);
  const ts::TimeSeries actual =
      series.Slice(series.length() - horizon, series.length());
  model.Fit(history);
  const ts::TimeSeries forecast = model.Forecast(history, horizon);
  return eval::ComputeMetric(eval::Metric::kMae, forecast, actual);
}

TEST(Window, ShapesAndContent) {
  const ts::TimeSeries s = ts::TimeSeries::Univariate({1, 2, 3, 4, 5, 6});
  const WindowedData data = MakeWindows(s, 3, 2, /*subtract_last=*/false);
  ASSERT_EQ(data.x.rows(), 2u);  // 6 - 3 - 2 + 1
  EXPECT_DOUBLE_EQ(data.x(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(data.x(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(data.y(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(data.y(1, 1), 6.0);
}

TEST(Window, SubtractLastNormalization) {
  const ts::TimeSeries s = ts::TimeSeries::Univariate({1, 2, 3, 4, 5});
  const WindowedData data = MakeWindows(s, 2, 1, /*subtract_last=*/true);
  // First window [1,2] -> target 3, last value 2 subtracted everywhere.
  EXPECT_DOUBLE_EQ(data.x(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(data.x(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(data.y(0, 0), 1.0);
}

TEST(Window, PoolsAcrossChannels) {
  linalg::Matrix m(6, 2);
  for (std::size_t t = 0; t < 6; ++t) {
    m(t, 0) = static_cast<double>(t);
    m(t, 1) = 10.0 + t;
  }
  const ts::TimeSeries s{std::move(m)};
  const WindowedData data = MakeWindows(s, 3, 1, false);
  EXPECT_EQ(data.x.rows(), 6u);  // 3 windows x 2 channels
}

TEST(Window, TailWindow) {
  const ts::TimeSeries s = ts::TimeSeries::Univariate({1, 2, 3, 4});
  const WindowFeatures wf = TailWindow(s, 0, 3, true);
  EXPECT_DOUBLE_EQ(wf.last_value, 4.0);
  EXPECT_DOUBLE_EQ(wf.features[0], -2.0);
  EXPECT_DOUBLE_EQ(wf.features[2], 0.0);
}

TEST(DecisionTree, FitsStepFunction) {
  // y = 1 if x0 > 0.5 else 0 — a single split should capture it.
  stats::Rng rng(1);
  linalg::Matrix x(200, 2);
  std::vector<double> y(200);
  std::vector<std::size_t> indices(200);
  for (std::size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = x(i, 0) > 0.5 ? 1.0 : 0.0;
    indices[i] = i;
  }
  DecisionTree tree;
  TreeOptions options;
  options.max_depth = 3;
  TreeWorkspace workspace(x);
  tree.Fit(y, indices, options, nullptr, &workspace);
  double features_hi[2] = {0.9, 0.5};
  double features_lo[2] = {0.1, 0.5};
  EXPECT_NEAR(tree.Predict(features_hi), 1.0, 0.05);
  EXPECT_NEAR(tree.Predict(features_lo), 0.0, 0.05);
  EXPECT_GE(tree.num_nodes(), 3u);
}

TEST(DecisionTree, RespectsMinLeafSize) {
  stats::Rng rng(2);
  linalg::Matrix x(20, 1);
  std::vector<double> y(20);
  std::vector<std::size_t> indices(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = rng.Gaussian();
    indices[i] = i;
  }
  DecisionTree tree;
  TreeOptions options;
  options.max_depth = 10;
  options.min_samples_leaf = 10;
  options.min_samples_split = 20;
  TreeWorkspace workspace(x);
  tree.Fit(y, indices, options, nullptr, &workspace);
  EXPECT_LE(tree.num_nodes(), 3u);
}

TEST(LinearRegression, LearnsSine) {
  const ts::TimeSeries s = SineSeries(400, 20, 0.1, 3);
  LinearRegressionOptions options;
  options.horizon = 10;
  LinearRegressionForecaster lr(options);
  NaiveForecaster naive;
  EXPECT_LT(ForecastMae(lr, s, 10), ForecastMae(naive, s, 10));
}

TEST(LinearRegression, HandlesTrendViaLastValueNorm) {
  std::vector<double> x(300);
  for (std::size_t t = 0; t < x.size(); ++t) x[t] = 0.5 * t;
  const ts::TimeSeries s = ts::TimeSeries::Univariate(std::move(x));
  LinearRegressionOptions options;
  options.horizon = 5;
  LinearRegressionForecaster lr(options);
  lr.Fit(s.Slice(0, 295));
  const ts::TimeSeries f = lr.Forecast(s.Slice(0, 295), 5);
  for (std::size_t h = 0; h < 5; ++h) {
    EXPECT_NEAR(f.at(h, 0), 0.5 * (295 + h), 1.0);
  }
}

TEST(LinearRegression, ExtendsBeyondTrainedHorizon) {
  const ts::TimeSeries s = SineSeries(300, 20, 0.1, 4);
  LinearRegressionOptions options;
  options.horizon = 4;
  LinearRegressionForecaster lr(options);
  lr.Fit(s);
  const ts::TimeSeries f = lr.Forecast(s, 11);  // IMS extension
  EXPECT_EQ(f.length(), 11u);
  for (std::size_t h = 0; h < 11; ++h) {
    EXPECT_TRUE(std::isfinite(f.at(h, 0)));
  }
}

TEST(RandomForest, LearnsSine) {
  const ts::TimeSeries s = SineSeries(400, 20, 0.1, 5);
  RandomForestOptions options;
  options.num_trees = 30;
  RandomForestForecaster rf(options);
  NaiveForecaster naive;
  EXPECT_LT(ForecastMae(rf, s, 10), ForecastMae(naive, s, 10));
}

TEST(RandomForest, DeterministicWithSeed) {
  const ts::TimeSeries s = SineSeries(200, 10, 0.2, 6);
  RandomForestOptions options;
  options.num_trees = 10;
  options.seed = 77;
  RandomForestForecaster a(options);
  RandomForestForecaster b(options);
  a.Fit(s);
  b.Fit(s);
  const ts::TimeSeries fa = a.Forecast(s, 5);
  const ts::TimeSeries fb = b.Forecast(s, 5);
  for (std::size_t h = 0; h < 5; ++h) {
    EXPECT_DOUBLE_EQ(fa.at(h, 0), fb.at(h, 0));
  }
}

TEST(GradientBoosting, LearnsSine) {
  const ts::TimeSeries s = SineSeries(400, 20, 0.1, 7);
  GradientBoostingOptions options;
  options.num_rounds = 50;
  GradientBoostingForecaster xgb(options);
  NaiveForecaster naive;
  EXPECT_LT(ForecastMae(xgb, s, 10), ForecastMae(naive, s, 10));
}

TEST(GradientBoosting, MoreRoundsFitTrainingBetter) {
  const ts::TimeSeries s = SineSeries(300, 15, 0.05, 8);
  GradientBoostingOptions small;
  small.num_rounds = 3;
  GradientBoostingOptions large;
  large.num_rounds = 60;
  GradientBoostingForecaster a(small);
  GradientBoostingForecaster b(large);
  EXPECT_GT(ForecastMae(a, s, 5), ForecastMae(b, s, 5));
}

TEST(MlMethods, MultivariatePooling) {
  // A global model trained across channels must produce forecasts for all.
  stats::Rng rng(9);
  linalg::Matrix m(300, 3);
  for (std::size_t t = 0; t < 300; ++t) {
    for (std::size_t v = 0; v < 3; ++v) {
      m(t, v) = std::sin(2.0 * M_PI * (t + 5.0 * v) / 24.0) +
                rng.Gaussian(0.0, 0.1);
    }
  }
  const ts::TimeSeries s{std::move(m)};
  LinearRegressionOptions options;
  options.horizon = 6;
  LinearRegressionForecaster lr(options);
  lr.Fit(s);
  const ts::TimeSeries f = lr.Forecast(s, 6);
  EXPECT_EQ(f.num_variables(), 3u);
  EXPECT_EQ(f.length(), 6u);
}

}  // namespace
}  // namespace tfb::methods
