#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "tfb/datagen/registry.h"
#include "tfb/methods/naive.h"
#include "tfb/pipeline/method_registry.h"
#include "tfb/pipeline/runner.h"
#include "tfb/report/report.h"
#include "tfb/stats/rng.h"

namespace tfb::pipeline {
namespace {

ts::TimeSeries SmallSeasonal(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t t = 0; t < n; ++t) {
    x[t] = 3.0 * std::sin(2.0 * M_PI * t / 12.0) + rng.Gaussian(0.0, 0.3);
  }
  ts::TimeSeries s = ts::TimeSeries::Univariate(std::move(x));
  s.set_seasonal_period(12);
  s.set_name("synthetic");
  return s;
}

TEST(Registry, AllMethodsConstructible) {
  MethodParams params;
  params.horizon = 6;
  for (const std::string& name : AllMethodNames()) {
    const auto config = MakeMethod(name, params);
    ASSERT_TRUE(config.has_value()) << name;
    const auto forecaster = config->factory();
    ASSERT_NE(forecaster, nullptr) << name;
    EXPECT_FALSE(forecaster->name().empty());
    EXPECT_TRUE(MethodParadigm(name).has_value());
    EXPECT_TRUE(MethodFamily(name).has_value());
  }
}

TEST(Registry, UnknownMethodRejected) {
  EXPECT_FALSE(MakeMethod("NoSuchMethod", {}).has_value());
  EXPECT_FALSE(MethodParadigm("NoSuchMethod").has_value());
}

TEST(Registry, ParadigmCoverageMatchesPaper) {
  // TFB's claim (Table 3): statistical + ML + DL all present.
  EXPECT_GE(MethodNamesByParadigm(Paradigm::kStatistical).size(), 5u);
  EXPECT_GE(MethodNamesByParadigm(Paradigm::kMachineLearning).size(), 3u);
  EXPECT_GE(MethodNamesByParadigm(Paradigm::kDeepLearning).size(), 8u);
}

TEST(Registry, HyperSearchSpaceBounded) {
  MethodParams params;
  params.horizon = 8;
  const auto configs = HyperSearchSpace("NLinear", params, 8);
  EXPECT_GE(configs.size(), 2u);
  EXPECT_LE(configs.size(), 8u);
  // First entry is the default configuration.
  EXPECT_EQ(configs[0].name, "NLinear");
  // Theta reads no look-back: its space is the default config alone.
  const auto stat_configs = HyperSearchSpace("Theta", params, 8);
  ASSERT_EQ(stat_configs.size(), 1u);
  EXPECT_EQ(stat_configs[0].name, "Theta");
}

// A look-back variant of a method that never reads `lookback` is the
// default model again. Every method whose space carries no look-back
// variant must forecast the same bytes at lookback 0 and 4h; otherwise the
// search dropped a distinct candidate.
TEST(Registry, SpacesWithoutLookbackVariantsIgnoreLookback) {
  const ts::TimeSeries series = SmallSeasonal(240, 5);
  MethodParams params;
  params.horizon = 12;
  std::size_t collapsed = 0;
  for (const std::string& name : AllMethodNames()) {
    const auto space = HyperSearchSpace(name, params, 8);
    ASSERT_FALSE(space.empty()) << name;
    const bool has_lookback_variant =
        std::any_of(space.begin(), space.end(), [](const auto& config) {
          return config.name.find("/L") != std::string::npos;
        });
    if (has_lookback_variant) continue;
    ++collapsed;
    auto forecast = [&](std::size_t lookback) {
      MethodParams p = params;
      p.lookback = lookback;
      auto model = MakeMethod(name, p)->factory();
      model->Fit(series);
      return model->Forecast(series, params.horizon);
    };
    const linalg::Matrix a = forecast(0).values();
    const linalg::Matrix b = forecast(4 * params.horizon).values();
    ASSERT_EQ(a.size(), b.size()) << name;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << name;
  }
  EXPECT_EQ(collapsed, MethodNamesByParadigm(Paradigm::kStatistical).size());
}

TEST(Runner, ExecutesSingleTask) {
  BenchmarkTask task;
  task.dataset = "synthetic";
  task.series = SmallSeasonal(300, 1);
  task.method = "SeasonalNaive";
  task.horizon = 12;
  const BenchmarkRunner runner;
  const ResultRow row = runner.RunOne(task);
  ASSERT_TRUE(row.ok) << row.error;
  EXPECT_EQ(row.dataset, "synthetic");
  EXPECT_GT(row.num_windows, 0u);
  EXPECT_TRUE(std::isfinite(row.metrics.at(eval::Metric::kMae)));
}

TEST(Runner, UnknownMethodReportsError) {
  BenchmarkTask task;
  task.dataset = "synthetic";
  task.series = SmallSeasonal(200, 2);
  task.method = "Bogus";
  const BenchmarkRunner runner;
  const ResultRow row = runner.RunOne(task);
  EXPECT_FALSE(row.ok);
  EXPECT_NE(row.error.find("Bogus"), std::string::npos);
}

TEST(Runner, ParallelMatchesSequential) {
  std::vector<BenchmarkTask> tasks;
  for (const char* method : {"Naive", "SeasonalNaive", "Drift", "Mean"}) {
    BenchmarkTask task;
    task.dataset = "synthetic";
    task.series = SmallSeasonal(300, 3);
    task.method = method;
    task.horizon = 12;
    tasks.push_back(std::move(task));
  }
  RunnerOptions seq;
  seq.num_threads = 1;
  RunnerOptions par;
  par.num_threads = 4;
  const auto rows_seq = BenchmarkRunner(seq).Run(tasks);
  const auto rows_par = BenchmarkRunner(par).Run(tasks);
  ASSERT_EQ(rows_seq.size(), rows_par.size());
  for (std::size_t i = 0; i < rows_seq.size(); ++i) {
    EXPECT_EQ(rows_seq[i].method, rows_par[i].method);
    EXPECT_DOUBLE_EQ(rows_seq[i].metrics.at(eval::Metric::kMae),
                     rows_par[i].metrics.at(eval::Metric::kMae));
  }
}

TEST(Runner, HyperSearchSelectsConfig) {
  BenchmarkTask task;
  task.dataset = "synthetic";
  task.series = SmallSeasonal(400, 4);
  task.method = "LinearRegression";
  task.horizon = 12;
  task.hyper_search = true;
  task.max_hyper_sets = 4;
  const BenchmarkRunner runner;
  const ResultRow row = runner.RunOne(task);
  ASSERT_TRUE(row.ok) << row.error;
  EXPECT_FALSE(row.selected_config.empty());
}

// An hourly-shaped cell: with the default 7:1:2 split, 240 points leave a
// validation region of 24 points, shorter than the horizon of 48. No
// candidate can be validated, so none is, and the note says why.
TEST(Runner, HyperSearchSkipsValidationRegionShorterThanHorizon) {
  BenchmarkTask task;
  task.dataset = "synthetic";
  task.series = SmallSeasonal(240, 5);
  task.method = "TwoConfigs";
  task.horizon = 48;
  auto built = std::make_shared<std::atomic<int>>(0);
  for (const char* name : {"a", "b"}) {
    task.custom_candidates.push_back({name, [built] {
      ++*built;
      return std::make_unique<methods::NaiveForecaster>();
    }});
  }
  const ResultRow row = BenchmarkRunner().RunOne(task);
  ASSERT_TRUE(row.ok) << row.error;
  EXPECT_EQ(row.selected_config, "a");
  EXPECT_EQ(row.note,
            "hyper selection skipped: validation region of 24 points is "
            "shorter than the horizon of 48, using default config");
  // Only the final evaluation of the default config built a model.
  EXPECT_EQ(built->load(), 1);
}

TEST(Report, PrintTableAndPivot) {
  ResultRow row;
  row.dataset = "ETTh2";
  row.method = "NLinear";
  row.horizon = 24;
  row.metrics[eval::Metric::kMae] = 0.5;
  row.metrics[eval::Metric::kMse] = 0.4;
  row.num_windows = 10;
  row.ok = true;
  std::ostringstream table;
  report::PrintTable(table, {row}, {eval::Metric::kMae, eval::Metric::kMse});
  EXPECT_NE(table.str().find("ETTh2"), std::string::npos);
  EXPECT_NE(table.str().find("0.5"), std::string::npos);
  std::ostringstream pivot;
  report::PrintPivot(pivot, {row}, eval::Metric::kMae);
  EXPECT_NE(pivot.str().find("ETTh2/24"), std::string::npos);
}

TEST(Report, CsvRoundTripish) {
  ResultRow row;
  row.dataset = "d";
  row.method = "m";
  row.horizon = 8;
  row.metrics[eval::Metric::kMae] = 1.25;
  row.ok = true;
  const std::string path = testing::TempDir() + "/tfb_report.csv";
  ASSERT_TRUE(report::WriteCsv(path, {row}, {eval::Metric::kMae}));
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("mae"), std::string::npos);
  std::string line;
  std::getline(in, line);
  EXPECT_NE(line.find("1.25"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Report, CountWinsPicksMinimum) {
  auto make_row = [](const std::string& dataset, const std::string& method,
                     double mae) {
    ResultRow row;
    row.dataset = dataset;
    row.method = method;
    row.horizon = 8;
    row.metrics[eval::Metric::kMae] = mae;
    row.ok = true;
    return row;
  };
  const std::vector<ResultRow> rows = {
      make_row("a", "m1", 0.5), make_row("a", "m2", 0.3),
      make_row("b", "m1", 0.2), make_row("b", "m2", 0.9)};
  const auto wins = report::CountWins(rows, eval::Metric::kMae);
  EXPECT_EQ(wins.at("m1"), 1u);
  EXPECT_EQ(wins.at("m2"), 1u);
}

}  // namespace
}  // namespace tfb::pipeline
