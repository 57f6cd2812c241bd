#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "tfb/pipeline/config.h"
#include "tfb/pipeline/transport.h"

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

TEST(Config, IntegerKeysTakeDigitsOnly) {
  const char* keys[] = {"max_windows", "stride",      "train_epochs",
                        "seed",        "num_threads", "max_length",
                        "max_dim",     "max_retries", "workers",
                        "shard_size",  "serve",       "memory_limit_mb"};
  for (const char* key : keys) {
    for (const char* value : {"-1", "+1", "5abc", "abc", "", "1.5", "1 2",
                              "99999999999999999999"}) {
      std::string error;
      EXPECT_FALSE(
          ParseConfig(std::string(key) + " = " + value + "\n", &error))
          << key << " = " << value;
      EXPECT_NE(error.find(key), std::string::npos) << error;
    }
    std::string error;
    EXPECT_TRUE(ParseConfig(std::string(key) + " = 3\n", &error)) << error;
  }
  std::string error;
  EXPECT_FALSE(ParseConfig("horizons = 12, 24x\n", &error));
  EXPECT_FALSE(ParseConfig("horizons = -12\n", &error));
  EXPECT_FALSE(ParseConfig("horizons = 0\n", &error));
  EXPECT_FALSE(ParseConfig("listen = 127.0.0.1:80abc\n", &error));
  EXPECT_FALSE(ParseConfig("listen = 127.0.0.1:-1\n", &error));
  EXPECT_FALSE(ParseConfig("train_epochs = 2147483648\n", &error));
  const auto seed = ParseConfig("seed = 18446744073709551615\n", &error);
  ASSERT_TRUE(seed) << error;
  EXPECT_EQ(seed->seed, 18446744073709551615ull);
}

TEST(Config, RealKeysRejectTrailingText) {
  for (const char* key : {"deadline_seconds", "retry_backoff_ms",
                          "retry_backoff_max_ms", "cpu_limit_seconds"}) {
    for (const char* value : {"1.5s", "abc", "", "-1", "nan", "1e999"}) {
      std::string error;
      EXPECT_FALSE(
          ParseConfig(std::string(key) + " = " + value + "\n", &error))
          << key << " = " << value;
      EXPECT_NE(error.find(key), std::string::npos) << error;
    }
    std::string error;
    EXPECT_TRUE(ParseConfig(std::string(key) + " = 2.5\n", &error)) << error;
  }
}

TEST(Config, ChaosNetTakesOnlyInRangeNumbers) {
  for (const char* spec :
       {"seed=-1", "partition=-2:3", "partition=2:-3", "partition=:3",
        "seed=1x", "seed=99999999999999999999", "drop=nan", "drop=1e999",
        "delay,delay_ms=inf", "drop=nan,delay_ms=inf,seed=-1"}) {
    std::string error;
    EXPECT_FALSE(ParseConfig("", &error, {std::string("--chaos-net=") + spec}))
        << spec;
    EXPECT_NE(error.find("bad chaos_net"), std::string::npos) << error;
  }
  const struct {
    const char* spec;
    const char* canonical;
  } valid[] = {
      {"drop=0.1,seed=3", "seed=3,drop=0.1"},
      {"drop, corrupt ,short,delay,partition",
       "seed=1,drop=0.05,corrupt=0.05,short=0.05,delay=0.25,delay_ms=5,"
       "partition=8:6"},
      {"delay=0.5,delay_ms=7.5,partition=0:4,seed=18446744073709551615",
       "seed=18446744073709551615,delay=0.5,delay_ms=7.5,partition=0:4"},
      {"corrupt=1,short=0,seed=0", "seed=0,corrupt=1"},
  };
  for (const auto& v : valid) {
    std::string error;
    const auto plan = ParseFaultPlan(v.spec, &error);
    ASSERT_TRUE(plan) << v.spec << ": " << error;
    EXPECT_EQ(FaultPlanToString(*plan), v.canonical) << v.spec;
    EXPECT_TRUE(ParseConfig("", &error, {std::string("--chaos-net=") + v.spec}))
        << error;
  }
}

TEST(Config, WorkersAreCappedAlikeInTheFileAndOnTheCommandLine) {
  std::string error;
  const auto most = ParseConfig("workers = 256\n", &error);
  ASSERT_TRUE(most) << error;
  EXPECT_EQ(most->workers, 256u);
  std::string file_error;
  EXPECT_FALSE(ParseConfig("workers = 257\n", &file_error));
  std::string flag_error;
  EXPECT_FALSE(ParseConfig("", &flag_error, {"--workers=257"}));
  EXPECT_EQ(file_error, "line 1: bad workers (0 to 256): 257");
  EXPECT_EQ(flag_error, "--workers=257: bad workers (0 to 256): 257");
  EXPECT_FALSE(ParseConfig("", &flag_error, {"--workers=-1"}));
  EXPECT_FALSE(ParseConfig("workers = -1\n", &file_error));
}

TEST(Config, FlagsApplyAfterTheFileInOrder) {
  std::string error;
  const auto config = ParseConfig(
      "seed = 1\nmax_windows = 2\nmethods = NotAMethod\n", &error,
      {"--seed=5", "--max-windows=3", "--seed=6", "--methods=VAR",
       "--external-workers", "--chaos-net=drop=0.1,seed=3",
       "--listen=0.0.0.0:9000"});
  ASSERT_TRUE(config) << error;
  EXPECT_EQ(config->seed, 6u);
  EXPECT_EQ(config->max_windows, 3u);
  // Registry names are checked once, after the flags.
  EXPECT_EQ(config->methods, (std::vector<std::string>{"VAR"}));
  EXPECT_TRUE(config->external_workers);
  EXPECT_EQ(config->chaos_net, "drop=0.1,seed=3");
  EXPECT_EQ(config->listen_host, "0.0.0.0");
  EXPECT_EQ(config->listen_port, 9000u);

  EXPECT_FALSE(ParseConfig("seed = 1\n", &error, {"--bogus-key=1"}));
  EXPECT_EQ(error, "--bogus-key=1: unknown key: bogus_key");
  EXPECT_FALSE(ParseConfig("", &error, {"--serve=80abc"}));
  EXPECT_FALSE(ParseConfig("", &error, {"--drop-last=maybe"}));
  EXPECT_FALSE(ParseConfig("", &error, {"seed=1"}));
}

TEST(Config, EveryKeyAsAFlagGivesTheSameConfig) {
  // Every key away from its default, so ConfigToString prints them all.
  std::string error;
  const auto full = ParseConfig(
      "datasets = ILI, ETTh2\nmethods = VAR, NLinear\nhorizons = 8, 16\n"
      "metrics = mse, smape\nscaler = minmax\nmax_windows = 3\nstride = 2\n"
      "drop_last = true\nhyper_search = true\ntrain_epochs = 4\nseed = 9\n"
      "num_threads = 3\nkernel = scalar\nmax_length = 500\nmax_dim = 4\n"
      "deadline_seconds = 2.5\nmax_retries = 2\nretry_backoff_ms = 5\n"
      "retry_backoff_max_ms = 40\nworkers = 3\nshard_size = 2\n"
      "transport = tcp\nlisten = 0.0.0.0:9000\nexternal_workers = true\n"
      "chaos_net = drop=0.1,partition,seed=3\nfallback = Naive\n"
      "journal = j.jsonl\njournal_fsync = true\nisolation = process\n"
      "memory_limit_mb = 512\ncpu_limit_seconds = 1.5\n"
      "trace_out = t.json\nmetrics_out = m.prom\nlog_level = debug\n"
      "log_json = l.jsonl\nprogress = plain\nserve = 9100\n",
      &error);
  ASSERT_TRUE(full) << error;
  const std::string text = ConfigToString(*full);
  std::string defaults = "\n";  // Every line of it sits between newlines.
  defaults += ConfigToString(BenchmarkConfig{});

  std::vector<std::string> flags;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t eq = line.find(" = ");
    ASSERT_NE(eq, std::string::npos) << line;
    std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 3);
    // The flag spelling: `-` for `_`, and a bare flag for true.
    std::replace(key.begin(), key.end(), '_', '-');
    flags.push_back(value == "true" ? "--" + key : "--" + key + "=" + value);
    EXPECT_EQ(defaults.find("\n" + line + "\n"), std::string::npos)
        << "left at its default: " << line;
  }
  const auto from_flags = ParseConfig("", &error, flags);
  ASSERT_TRUE(from_flags) << error;
  EXPECT_EQ(ConfigToString(*from_flags), text);
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
