#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "tfb/pipeline/config.h"

namespace tfb::pipeline {
namespace {

constexpr char kSample[] = R"(# sample config
datasets = ETTh2, ILI
methods  = VAR, NLinear
horizons = 12, 24
metrics  = mae, smape
strategy = rolling
scaler   = minmax
max_windows = 3
drop_last = true
hyper_search = true
train_epochs = 5
seed = 99
num_threads = 2
)";

TEST(Config, ParsesAllKeys) {
  std::string error;
  const auto config = ParseConfig(kSample, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->datasets, (std::vector<std::string>{"ETTh2", "ILI"}));
  EXPECT_EQ(config->methods, (std::vector<std::string>{"VAR", "NLinear"}));
  EXPECT_EQ(config->horizons, (std::vector<std::size_t>{12, 24}));
  ASSERT_EQ(config->metrics.size(), 2u);
  EXPECT_EQ(config->metrics[0], eval::Metric::kMae);
  EXPECT_EQ(config->metrics[1], eval::Metric::kSmape);
  EXPECT_EQ(config->scaler, ts::ScalerKind::kMinMax);
  EXPECT_EQ(config->max_windows, 3u);
  EXPECT_TRUE(config->drop_last);
  EXPECT_TRUE(config->hyper_search);
  EXPECT_EQ(config->train_epochs, 5);
  EXPECT_EQ(config->seed, 99u);
  EXPECT_EQ(config->num_threads, 2u);
}

TEST(Config, ParsesAndRoundTripsKernelKey) {
  std::string error;
  const auto config = ParseConfig("kernel = scalar\n", &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->kernel, "scalar");
  const auto round = ParseConfig(ConfigToString(*config), &error);
  ASSERT_TRUE(round.has_value()) << error;
  EXPECT_EQ(round->kernel, "scalar");
  // Default: no kernel key, no line emitted.
  const auto plain = ParseConfig("seed = 1\n", &error);
  ASSERT_TRUE(plain.has_value());
  EXPECT_TRUE(plain->kernel.empty());
  EXPECT_EQ(ConfigToString(*plain).find("kernel ="), std::string::npos);
}

TEST(Config, RejectsBadKernelValue) {
  std::string error;
  EXPECT_FALSE(ParseConfig("kernel = sse9\n", &error).has_value());
  EXPECT_NE(error.find("kernel"), std::string::npos);
}

TEST(Config, StrategyKeyAcceptsOnlyRolling) {
  std::string error;
  EXPECT_TRUE(ParseConfig("strategy = rolling\n", &error).has_value())
      << error;
  EXPECT_FALSE(ParseConfig("strategy = fixed\n", &error).has_value());
  EXPECT_NE(error.find("rolling strategy only"), std::string::npos) << error;
}

TEST(Config, RejectsUnknownKey) {
  std::string error;
  EXPECT_FALSE(ParseConfig("bogus_key = 1\n", &error).has_value());
  EXPECT_NE(error.find("unknown key"), std::string::npos);
}

TEST(Config, RejectsUnknownMethod) {
  std::string error;
  EXPECT_FALSE(ParseConfig("methods = NotAMethod\n", &error).has_value());
  EXPECT_NE(error.find("NotAMethod"), std::string::npos);
}

TEST(Config, RejectsUnknownDataset) {
  std::string error;
  EXPECT_FALSE(ParseConfig("datasets = NotADataset\n", &error).has_value());
  EXPECT_NE(error.find("NotADataset"), std::string::npos);
}

TEST(Config, RejectsBadMetric) {
  std::string error;
  EXPECT_FALSE(ParseConfig("metrics = mae, nope\n", &error).has_value());
}

TEST(Config, RejectsMalformedLine) {
  std::string error;
  EXPECT_FALSE(ParseConfig("datasets ETTh2\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(Config, CommentsAndBlankLinesIgnored) {
  const auto config = ParseConfig("\n# full comment\nseed = 5 # trailing\n");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->seed, 5u);
}

TEST(Config, RoundTripThroughString) {
  std::string error;
  const auto config = ParseConfig(kSample, &error);
  ASSERT_TRUE(config.has_value());
  const auto round = ParseConfig(ConfigToString(*config), &error);
  ASSERT_TRUE(round.has_value()) << error;
  EXPECT_EQ(round->datasets, config->datasets);
  EXPECT_EQ(round->methods, config->methods);
  EXPECT_EQ(round->horizons, config->horizons);
  EXPECT_EQ(round->seed, config->seed);
  EXPECT_EQ(round->drop_last, config->drop_last);
}

TEST(Config, LoadConfigFile) {
  const std::string path = testing::TempDir() + "/tfb_config_test.conf";
  {
    std::ofstream os(path);
    os << kSample;
  }
  std::string error;
  const auto config = LoadConfigFile(path, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->datasets.size(), 2u);
  std::remove(path.c_str());

  EXPECT_FALSE(LoadConfigFile("/no/such/file.conf", &error).has_value());
}

TEST(Config, BuildTasksExpandsCube) {
  std::string error;
  const auto config = ParseConfig(kSample, &error);
  ASSERT_TRUE(config.has_value());
  const auto tasks = BuildTasks(*config);
  EXPECT_EQ(tasks.size(), 2u * 2u * 2u);  // datasets x methods x horizons
  for (const auto& task : tasks) {
    EXPECT_GT(task.series.length(), 0u);
    EXPECT_TRUE(task.hyper_search);
    EXPECT_TRUE(task.rolling.drop_last);
  }
}

TEST(Config, ParsesTelemetryKeys) {
  std::string error;
  const auto config = ParseConfig(
      "log_level = Debug\nlog_json = run.log.jsonl\nprogress = plain\n"
      "serve = 9100\n",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->log_level, obs::LogLevel::kDebug);
  EXPECT_EQ(config->log_json, "run.log.jsonl");
  EXPECT_EQ(config->progress, obs::ProgressMode::kPlain);
  EXPECT_EQ(config->serve_port, 9100u);

  // Defaults when absent: info / no JSONL sink / auto / not serving.
  const auto defaults = ParseConfig("seed = 1\n", &error);
  ASSERT_TRUE(defaults.has_value()) << error;
  EXPECT_EQ(defaults->log_level, obs::LogLevel::kInfo);
  EXPECT_TRUE(defaults->log_json.empty());
  EXPECT_EQ(defaults->progress, obs::ProgressMode::kAuto);
  EXPECT_EQ(defaults->serve_port, 0u);
}

TEST(Config, RejectsBadTelemetryValues) {
  std::string error;
  EXPECT_FALSE(ParseConfig("log_level = loud\n", &error).has_value());
  EXPECT_NE(error.find("log_level"), std::string::npos) << error;
  EXPECT_FALSE(ParseConfig("progress = spinner\n", &error).has_value());
  EXPECT_NE(error.find("progress"), std::string::npos) << error;
  EXPECT_FALSE(ParseConfig("serve = 70000\n", &error).has_value());
  EXPECT_FALSE(ParseConfig("serve = -1\n", &error).has_value());
}

TEST(Config, TelemetryKeysRoundTripAndReachRunnerOptions) {
  std::string error;
  const auto config = ParseConfig(
      "log_level = warn\nlog_json = t.jsonl\nprogress = off\nserve = 8080\n",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  const auto round = ParseConfig(ConfigToString(*config), &error);
  ASSERT_TRUE(round.has_value()) << error;
  EXPECT_EQ(round->log_level, config->log_level);
  EXPECT_EQ(round->log_json, config->log_json);
  EXPECT_EQ(round->progress, config->progress);
  EXPECT_EQ(round->serve_port, config->serve_port);

  // The progress mode is what the runner consumes.
  EXPECT_EQ(config->MakeRunnerOptions().progress, obs::ProgressMode::kOff);
}

TEST(Config, MetricFromName) {
  EXPECT_EQ(MetricFromName("mase"), eval::Metric::kMase);
  EXPECT_FALSE(MetricFromName("bogus").has_value());
}

TEST(Config, EndToEndRunFromConfig) {
  std::string error;
  const auto config = ParseConfig(
      "datasets = ILI\nmethods = SeasonalNaive, Drift\nhorizons = 8\n"
      "max_windows = 2\nmax_length = 400\nmax_dim = 3\n",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  const auto tasks = BuildTasks(*config);
  ASSERT_EQ(tasks.size(), 2u);
  const auto rows = BenchmarkRunner().Run(tasks);
  for (const auto& row : rows) {
    EXPECT_TRUE(row.ok) << row.error;
    EXPECT_GT(row.num_windows, 0u);
  }
}

}  // namespace
}  // namespace tfb::pipeline
