// Failure-injection and edge-case sweep: the pipeline must behave sanely on
// hostile inputs — gaps (NaN/inf) repaired through the imputation path,
// constant series, extreme magnitudes, near-singular multivariate data, and
// minimum-length series — without crashing or silently emitting garbage.
// The runner-level scenarios exercise the fault-isolation layer: a grid
// containing NaN-emitting, wrong-shape, slow, and hung forecasters must
// complete with correct ok/error rows while healthy cells stay bit-identical
// to a clean run, and a journaled grid must resume without re-running
// finished tasks.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault_injection.h"
#include "tfb/tfb.h"

namespace tfb {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

ts::TimeSeries CleanSeries(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * M_PI * t / 12.0) + rng.Gaussian(0.0, 0.2);
  }
  ts::TimeSeries s = ts::TimeSeries::Univariate(std::move(x));
  s.set_seasonal_period(12);
  return s;
}

TEST(FailureInjection, GappySeriesRepairedThenForecastable) {
  ts::TimeSeries s = CleanSeries(300, 1);
  // Punch holes: 10% missing, including a long run.
  stats::Rng rng(2);
  for (std::size_t t = 0; t < s.length(); ++t) {
    if (rng.Bernoulli(0.1)) s.at(t, 0) = kNan;
  }
  for (std::size_t t = 100; t < 120; ++t) s.at(t, 0) = kNan;
  ASSERT_GT(ts::CountMissing(s), 20u);

  const ts::TimeSeries repaired = ts::Impute(s, ts::ImputeKind::kLinear);
  ASSERT_EQ(ts::CountMissing(repaired), 0u);

  methods::ThetaForecaster theta;
  theta.Fit(repaired);
  const ts::TimeSeries f = theta.Forecast(repaired, 12);
  for (std::size_t h = 0; h < 12; ++h) {
    EXPECT_TRUE(std::isfinite(f.at(h, 0)));
  }
}

TEST(FailureInjection, ConstantSeriesAcrossParadigms) {
  ts::TimeSeries s = ts::TimeSeries::Univariate(std::vector<double>(200, 5.0));
  s.set_seasonal_period(12);
  for (const char* method :
       {"Naive", "Theta", "ETS", "ARIMA", "LinearRegression", "NLinear",
        "StationaryMLP"}) {
    pipeline::MethodParams params;
    params.horizon = 6;
    params.train_epochs = 2;
    const auto config = pipeline::MakeMethod(method, params);
    auto model = config->factory();
    model->Fit(s);
    const ts::TimeSeries f = model->Forecast(s, 6);
    for (std::size_t h = 0; h < 6; ++h) {
      EXPECT_TRUE(std::isfinite(f.at(h, 0))) << method;
      EXPECT_NEAR(f.at(h, 0), 5.0, 1.0) << method;
    }
  }
}

TEST(FailureInjection, ExtremeMagnitudesSurviveNormalizedPipeline) {
  // Values around 1e9: the scaler must bring everything into sane range
  // and the reported metrics must be normalized-scale, not raw-scale.
  ts::TimeSeries s = CleanSeries(300, 3);
  for (std::size_t t = 0; t < s.length(); ++t) {
    s.at(t, 0) = 1e9 + 1e7 * s.at(t, 0);
  }
  const methods::ForecasterFactory factory = [] {
    return std::make_unique<methods::SeasonalNaiveForecaster>();
  };
  const eval::EvalResult r = eval::RollingForecastEvaluate(factory, s, 12, {});
  EXPECT_TRUE(std::isfinite(r.metrics.at(eval::Metric::kMae)));
  EXPECT_LT(r.metrics.at(eval::Metric::kMae), 100.0);
}

TEST(FailureInjection, ZeroVarianceChannelInMultivariate) {
  linalg::Matrix m(240, 3);
  stats::Rng rng(4);
  for (std::size_t t = 0; t < 240; ++t) {
    m(t, 0) = std::sin(2.0 * M_PI * t / 12.0) + rng.Gaussian(0.0, 0.1);
    m(t, 1) = 7.0;  // dead sensor
    m(t, 2) = rng.Gaussian();
  }
  ts::TimeSeries s{std::move(m)};
  s.set_seasonal_period(12);
  for (const char* method : {"VAR", "LinearRegression", "NLinear", "ETS"}) {
    pipeline::MethodParams params;
    params.horizon = 6;
    params.train_epochs = 2;
    const auto config = pipeline::MakeMethod(method, params);
    auto model = config->factory();
    model->Fit(s);
    const ts::TimeSeries f = model->Forecast(s, 6);
    for (std::size_t h = 0; h < 6; ++h) {
      for (std::size_t v = 0; v < 3; ++v) {
        EXPECT_TRUE(std::isfinite(f.at(h, v))) << method;
      }
    }
  }
}

TEST(FailureInjection, MinimumLengthSeries) {
  // Statistical methods must degrade gracefully on very short input.
  const ts::TimeSeries s = ts::TimeSeries::Univariate(
      {1.0, 2.0, 3.0, 2.0, 1.0, 2.0, 3.0, 2.0, 1.0, 2.0, 3.0, 2.0});
  for (const char* method : {"Naive", "Drift", "Mean", "Theta", "ETS"}) {
    const auto config = pipeline::MakeMethod(method, {});
    auto model = config->factory();
    model->Fit(s);
    const ts::TimeSeries f = model->Forecast(s, 4);
    EXPECT_EQ(f.length(), 4u);
    for (std::size_t h = 0; h < 4; ++h) {
      EXPECT_TRUE(std::isfinite(f.at(h, 0))) << method;
    }
  }
}

TEST(FailureInjection, HeavyTailedSpikesDoNotExplodeForecasts) {
  ts::TimeSeries s = CleanSeries(400, 5);
  // Inject occasional 50-sigma spikes.
  stats::Rng rng(6);
  for (std::size_t t = 0; t < s.length(); t += 67) {
    s.at(t, 0) += 50.0 * (rng.Bernoulli(0.5) ? 1.0 : -1.0);
  }
  for (const char* method : {"Theta", "LinearRegression", "NLinear"}) {
    pipeline::MethodParams params;
    params.horizon = 8;
    params.train_epochs = 3;
    const auto config = pipeline::MakeMethod(method, params);
    auto model = config->factory();
    model->Fit(s);
    const ts::TimeSeries f = model->Forecast(s, 8);
    for (std::size_t h = 0; h < 8; ++h) {
      EXPECT_TRUE(std::isfinite(f.at(h, 0))) << method;
      EXPECT_LT(std::fabs(f.at(h, 0)), 500.0) << method;
    }
  }
}

TEST(FailureInjection, CharacterizationOnDegenerateInputs) {
  using namespace characterization;
  // Constant, tiny, and spike-only series must yield finite characteristics.
  const std::vector<ts::TimeSeries> inputs = {
      ts::TimeSeries::Univariate(std::vector<double>(100, 1.0)),
      ts::TimeSeries::Univariate({1.0, 2.0, 3.0}),
      [] {
        std::vector<double> x(100, 0.0);
        x[50] = 1000.0;
        return ts::TimeSeries::Univariate(std::move(x));
      }(),
  };
  for (const auto& s : inputs) {
    const Characteristics c = Characterize(s);
    EXPECT_TRUE(std::isfinite(c.trend));
    EXPECT_TRUE(std::isfinite(c.seasonality));
    EXPECT_TRUE(std::isfinite(c.shifting));
    EXPECT_TRUE(std::isfinite(c.transition));
  }
}

TEST(FailureInjection, RollingOnShortestViableSeries) {
  const ts::TimeSeries s = CleanSeries(40, 7);
  const methods::ForecasterFactory factory = [] {
    return std::make_unique<methods::NaiveForecaster>();
  };
  const eval::EvalResult r = eval::RollingForecastEvaluate(factory, s, 4, {});
  EXPECT_GE(r.num_windows, 1u);
}

// ---------------------------------------------------------------------------
// Fault-isolation layer: guard, deadlines, fallback, journal, resume.

pipeline::BenchmarkTask CustomTask(const std::string& method,
                                   methods::ForecasterFactory factory,
                                   const ts::TimeSeries& series,
                                   std::size_t horizon = 12) {
  pipeline::BenchmarkTask task;
  task.dataset = "synthetic";
  task.series = series;
  task.method = method;
  task.horizon = horizon;
  task.custom_candidates.push_back({method, std::move(factory)});
  return task;
}

TEST(FaultIsolation, EvalPreconditionsAreRecoverableNotFatal) {
  // A series too short to roll used to TFB_CHECK-abort the whole process;
  // it must now come back as a per-evaluation error.
  const ts::TimeSeries s = CleanSeries(20, 8);
  const methods::ForecasterFactory factory = [] {
    return std::make_unique<methods::NaiveForecaster>();
  };
  const eval::EvalResult r = eval::RollingForecastEvaluate(factory, s, 16, {});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("too short"), std::string::npos);

  const eval::EvalResult fixed =
      eval::FixedForecastEvaluate(*factory(), s.Slice(0, 10), 12, {});
  EXPECT_FALSE(fixed.ok);
}

TEST(FaultIsolation, GuardValidatesShapeAndFiniteness) {
  const ts::TimeSeries s = CleanSeries(100, 9);
  for (const auto kind : {methods::FaultSpec::Kind::kNaN,
                          methods::FaultSpec::Kind::kWrongShape,
                          methods::FaultSpec::Kind::kEmptyForecast}) {
    methods::FaultSpec spec;
    spec.kind = kind;
    auto state = std::make_shared<methods::GuardState>();
    methods::GuardedForecaster guarded(
        std::make_unique<methods::FaultInjectingForecaster>(spec), state);
    guarded.Fit(s);
    const ts::TimeSeries f = guarded.Forecast(s, 8);
    // The substitute output keeps the evaluation well-formed...
    ASSERT_EQ(f.length(), 8u);
    ASSERT_EQ(f.num_variables(), 1u);
    for (std::size_t t = 0; t < 8; ++t) {
      EXPECT_TRUE(std::isfinite(f.at(t, 0)));
    }
    // ...while the violation is on record for the pipeline.
    EXPECT_FALSE(state->ok());
    EXPECT_EQ(state->status().code(), base::StatusCode::kInvalidOutput);
  }
}

TEST(FaultIsolation, GridIsolatesFaultyMethodsFromHealthyOnes) {
  const ts::TimeSeries series = CleanSeries(300, 10);

  // Clean reference run: one healthy registry method, no faults, no guards
  // beyond the defaults.
  pipeline::BenchmarkTask healthy;
  healthy.dataset = "synthetic";
  healthy.series = series;
  healthy.method = "SeasonalNaive";
  healthy.horizon = 12;
  const pipeline::ResultRow clean =
      pipeline::BenchmarkRunner().RunOne(healthy);
  ASSERT_TRUE(clean.ok) << clean.error;

  // The hostile grid: the same healthy task plus a NaN emitter, a
  // wrong-shape method, and a slow method that exceeds its deadline.
  methods::FaultSpec nan_spec;
  nan_spec.kind = methods::FaultSpec::Kind::kNaN;
  methods::FaultSpec shape_spec;
  shape_spec.kind = methods::FaultSpec::Kind::kWrongShape;
  methods::FaultSpec slow_spec;
  slow_spec.kind = methods::FaultSpec::Kind::kSlowFit;
  slow_spec.sleep_ms = 150.0;

  std::vector<pipeline::BenchmarkTask> tasks;
  tasks.push_back(healthy);
  tasks.push_back(CustomTask("AlwaysNaN", MakeFaultyFactory(nan_spec), series));
  tasks.push_back(
      CustomTask("WrongShape", MakeFaultyFactory(shape_spec), series));
  tasks.push_back(CustomTask("TooSlow", MakeFaultyFactory(slow_spec), series));

  pipeline::RunnerOptions options;
  options.deadline_seconds = 0.2;
  const auto rows = pipeline::BenchmarkRunner(options).Run(tasks);
  ASSERT_EQ(rows.size(), 4u);

  // Healthy cell: unchanged, bit-identical to the clean run.
  ASSERT_TRUE(rows[0].ok) << rows[0].error;
  ASSERT_EQ(rows[0].metrics.size(), clean.metrics.size());
  for (const auto& [metric, value] : clean.metrics) {
    EXPECT_EQ(rows[0].metrics.at(metric), value)
        << eval::MetricName(metric) << " changed under the guarded runner";
  }

  EXPECT_FALSE(rows[1].ok);
  EXPECT_NE(rows[1].error.find("non-finite"), std::string::npos)
      << rows[1].error;
  EXPECT_FALSE(rows[2].ok);
  EXPECT_NE(rows[2].error.find("shape"), std::string::npos) << rows[2].error;
  EXPECT_FALSE(rows[3].ok);
  EXPECT_NE(rows[3].error.find("DEADLINE"), std::string::npos)
      << rows[3].error;
}

TEST(FaultIsolation, HardWatchdogRecoversFromHungTask) {
  const ts::TimeSeries series = CleanSeries(200, 11);
  methods::FaultSpec hang;
  hang.kind = methods::FaultSpec::Kind::kHangFit;
  hang.sleep_ms = 1200.0;  // One uninterruptible stall inside Fit.

  pipeline::RunnerOptions options;
  options.deadline_seconds = 0.1;
  const auto start = std::chrono::steady_clock::now();
  const pipeline::ResultRow row = pipeline::BenchmarkRunner(options).RunOne(
      CustomTask("Hung", MakeFaultyFactory(hang), series));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_FALSE(row.ok);
  EXPECT_NE(row.error.find("DEADLINE"), std::string::npos) << row.error;
  // The runner must abandon the hung task, not sit out the full stall.
  EXPECT_LT(elapsed, 1.0);

  // The abandoned worker was adopted by the reaper, not detached: once the
  // stall ends it is joinable, and draining it leaves zero orphan threads
  // (what keeps ASan/TSan shutdown clean).
  EXPECT_EQ(pipeline::ReapAbandonedWorkers(5.0), 0u);
}

TEST(FaultIsolation, FallbackForecasterKeepsTheTableComplete) {
  const ts::TimeSeries series = CleanSeries(300, 12);
  methods::FaultSpec nan_spec;
  nan_spec.kind = methods::FaultSpec::Kind::kNaN;

  pipeline::RunnerOptions options;
  options.fallback_method = "SeasonalNaive";
  const pipeline::ResultRow row = pipeline::BenchmarkRunner(options).RunOne(
      CustomTask("AlwaysNaN", MakeFaultyFactory(nan_spec), series));

  EXPECT_TRUE(row.ok);
  EXPECT_TRUE(row.used_fallback);
  EXPECT_EQ(row.selected_config, "SeasonalNaive");
  // The primary failure stays on record for the failure summary.
  EXPECT_NE(row.error.find("non-finite"), std::string::npos) << row.error;
  EXPECT_TRUE(std::isfinite(row.metrics.at(eval::Metric::kMae)));
}

TEST(FaultIsolation, RetryRecoversTransientFailure) {
  const ts::TimeSeries series = CleanSeries(300, 13);
  // First instantiated forecaster NaNs, every later one is healthy — a
  // transient failure the bounded retry should absorb.
  auto instances = std::make_shared<std::atomic<int>>(0);
  methods::ForecasterFactory flaky = [instances] {
    methods::FaultSpec spec;
    if (instances->fetch_add(1) == 0) {
      spec.kind = methods::FaultSpec::Kind::kNaN;
    }
    return std::make_unique<methods::FaultInjectingForecaster>(spec);
  };

  pipeline::RunnerOptions no_retry;
  const pipeline::ResultRow failed = pipeline::BenchmarkRunner(no_retry)
      .RunOne(CustomTask("Flaky", flaky, series));
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.attempts, 1u);

  instances->store(0);
  pipeline::RunnerOptions with_retry;
  with_retry.max_retries = 1;
  const pipeline::ResultRow row = pipeline::BenchmarkRunner(with_retry)
      .RunOne(CustomTask("Flaky", flaky, series));
  EXPECT_TRUE(row.ok) << row.error;
  EXPECT_EQ(row.attempts, 2u);
  EXPECT_NE(row.note.find("attempt 2"), std::string::npos) << row.note;
}

TEST(FaultIsolation, HyperSelectionSkipsNonFiniteScores) {
  const ts::TimeSeries series = CleanSeries(300, 14);
  methods::FaultSpec nan_spec;
  nan_spec.kind = methods::FaultSpec::Kind::kNaN;

  // Candidate 0 always scores NaN on validation; before the fix `<` never
  // replaced it and config 0 silently won. Candidate 1 must be selected.
  pipeline::BenchmarkTask task;
  task.dataset = "synthetic";
  task.series = series;
  task.method = "Mixed";
  task.horizon = 12;
  task.custom_candidates.push_back(
      {"nan-config", MakeFaultyFactory(nan_spec)});
  task.custom_candidates.push_back({"good-config", [] {
    return std::make_unique<methods::SeasonalNaiveForecaster>();
  }});

  const pipeline::ResultRow row = pipeline::BenchmarkRunner().RunOne(task);
  ASSERT_TRUE(row.ok) << row.error;
  EXPECT_EQ(row.selected_config, "good-config");

  // All-NaN search: falls back to the default config, says so, and the row
  // is flagged failed rather than reporting poisoned metrics.
  pipeline::BenchmarkTask all_bad = task;
  all_bad.custom_candidates[1] = {"nan-config-2", MakeFaultyFactory(nan_spec)};
  const pipeline::ResultRow bad_row =
      pipeline::BenchmarkRunner().RunOne(all_bad);
  EXPECT_FALSE(bad_row.ok);
  EXPECT_NE(bad_row.note.find("default config"), std::string::npos)
      << bad_row.note;
}

TEST(FaultIsolation, HyperSelectionSurfacesShortValidationRegion) {
  // Long enough to roll on test but too short for the validation split
  // (train+val ~19 points < horizon + 16).
  const ts::TimeSeries series = CleanSeries(24, 15);
  pipeline::BenchmarkTask task;
  task.dataset = "synthetic";
  task.series = series;
  task.method = "TwoConfigs";
  task.horizon = 4;
  for (const char* name : {"a", "b"}) {
    task.custom_candidates.push_back({name, [] {
      return std::make_unique<methods::NaiveForecaster>();
    }});
  }
  const pipeline::ResultRow row = pipeline::BenchmarkRunner().RunOne(task);
  ASSERT_TRUE(row.ok) << row.error;
  EXPECT_NE(row.note.find("validation region too short"), std::string::npos)
      << row.note;
}

TEST(FaultIsolation, JournalLineRoundTripsAllFields) {
  pipeline::ResultRow row;
  row.dataset = "ETTh2";
  row.method = "PatchAttention";
  row.horizon = 36;
  row.ok = false;
  row.error = "INVALID_OUTPUT: commas, \"quotes\", and\nnewlines";
  row.selected_config = "PatchAttention/lb=96";
  row.used_fallback = true;
  row.note = "fell back";
  row.attempts = 2;
  row.num_windows = 7;
  row.fit_seconds = 1.25e-3;
  row.inference_ms_per_window = 0.625;
  row.metrics[eval::Metric::kMae] = 0.123456789012345678;
  row.metrics[eval::Metric::kMse] = 1e300;
  row.stderr_tail = "warning: shaky\nfatal: \"boom\" at layer 3";

  pipeline::ResultRow parsed;
  ASSERT_TRUE(
      pipeline::ParseJournalLine(pipeline::JournalLine(row), &parsed));
  EXPECT_EQ(parsed.dataset, row.dataset);
  EXPECT_EQ(parsed.method, row.method);
  EXPECT_EQ(parsed.horizon, row.horizon);
  EXPECT_EQ(parsed.ok, row.ok);
  EXPECT_EQ(parsed.error, row.error);
  EXPECT_EQ(parsed.selected_config, row.selected_config);
  EXPECT_EQ(parsed.used_fallback, row.used_fallback);
  EXPECT_EQ(parsed.note, row.note);
  EXPECT_EQ(parsed.attempts, row.attempts);
  EXPECT_EQ(parsed.num_windows, row.num_windows);
  EXPECT_EQ(parsed.fit_seconds, row.fit_seconds);
  // %.17g serialization: metrics survive bit-exactly.
  EXPECT_EQ(parsed.metrics.at(eval::Metric::kMae),
            row.metrics.at(eval::Metric::kMae));
  EXPECT_EQ(parsed.metrics.at(eval::Metric::kMse),
            row.metrics.at(eval::Metric::kMse));
  EXPECT_EQ(parsed.stderr_tail, row.stderr_tail);

  // An empty tail is omitted entirely, so journals written before the
  // stderr-capture feature (and all-ok journals) stay byte-identical.
  pipeline::ResultRow quiet = row;
  quiet.stderr_tail.clear();
  EXPECT_EQ(pipeline::JournalLine(quiet).find("stderr_tail"),
            std::string::npos);

  EXPECT_FALSE(pipeline::ParseJournalLine("{not json", &parsed));
}

TEST(FaultIsolation, JournalLineRoundTripsEveryStringByte) {
  // Every control byte (NUL included), the two JSON-special characters and
  // a multi-byte UTF-8 sequence must come back unchanged in every string
  // field, or a resumed run (or a shard ROW frame) alters the row.
  std::string nasty;
  for (int c = 0x00; c <= 0x1f; ++c) nasty.push_back(static_cast<char>(c));
  nasty += "\"\\ \xc3\xa9\xe2\x82\xac\xf0\x9f\x93\x88 /end";

  pipeline::ResultRow row;
  row.dataset = "d" + nasty;
  row.method = "m" + nasty;
  row.horizon = 12;
  row.error = "e" + nasty;
  row.selected_config = "s" + nasty;
  row.note = "n" + nasty;
  row.stderr_tail = "t" + nasty;
  row.metrics[eval::Metric::kMae] = 0.5;

  const std::string line = pipeline::JournalLine(row);
  pipeline::ResultRow parsed;
  ASSERT_TRUE(pipeline::ParseJournalLine(line, &parsed)) << line;
  EXPECT_EQ(parsed.dataset, row.dataset);
  EXPECT_EQ(parsed.method, row.method);
  EXPECT_EQ(parsed.error, row.error);
  EXPECT_EQ(parsed.selected_config, row.selected_config);
  EXPECT_EQ(parsed.note, row.note);
  EXPECT_EQ(parsed.stderr_tail, row.stderr_tail);
  EXPECT_EQ(pipeline::JournalLine(parsed), line);
}

TEST(FaultIsolation, JournalResumeSkipsFinishedTasks) {
  const std::string path = testing::TempDir() + "/tfb_journal_test.jsonl";
  std::remove(path.c_str());
  const ts::TimeSeries series = CleanSeries(300, 16);

  auto instances = std::make_shared<std::atomic<int>>(0);
  auto counting_factory = [instances] {
    instances->fetch_add(1);
    return std::make_unique<methods::SeasonalNaiveForecaster>();
  };
  std::vector<pipeline::BenchmarkTask> tasks;
  for (const char* method : {"m1", "m2", "m3"}) {
    tasks.push_back(CustomTask(method, counting_factory, series));
  }

  pipeline::RunnerOptions journaled;
  journaled.journal_path = path;
  const auto first = pipeline::BenchmarkRunner(journaled).Run(tasks);
  ASSERT_EQ(first.size(), 3u);
  for (const auto& row : first) ASSERT_TRUE(row.ok) << row.error;
  EXPECT_EQ(instances->load(), 3);
  EXPECT_EQ(pipeline::LoadJournal(path).size(), 3u);

  // Resume over the same grid plus one new cell: only the new cell runs.
  tasks.push_back(CustomTask("m4", counting_factory, series));
  pipeline::RunnerOptions resuming = journaled;
  resuming.resume = true;
  const auto second = pipeline::BenchmarkRunner(resuming).Run(tasks);
  ASSERT_EQ(second.size(), 4u);
  EXPECT_EQ(instances->load(), 4);  // m1..m3 skipped, m4 executed.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(second[i].ok);
    EXPECT_EQ(second[i].method, first[i].method);
    EXPECT_EQ(second[i].metrics.at(eval::Metric::kMae),
              first[i].metrics.at(eval::Metric::kMae));
  }
  EXPECT_TRUE(second[3].ok) << second[3].error;
  EXPECT_EQ(pipeline::LoadJournal(path).size(), 4u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Process-level sandbox: crash/OOM isolation, failure classes, resume.

TEST(ProcessIsolation, GridSurvivesSegfaultAndOomAndJournalsClasses) {
  // The PR-2 acceptance scenario: a grid containing a forecaster that
  // segfaults and one that exceeds the memory limit completes all remaining
  // cells under --isolate=process, journals the correct failure class for
  // each, and --resume skips both on re-run.
  const std::string path = testing::TempDir() + "/tfb_sandbox_grid.jsonl";
  std::remove(path.c_str());
  const ts::TimeSeries series = CleanSeries(300, 20);

  // Clean reference: the healthy method without any isolation.
  pipeline::BenchmarkTask healthy = CustomTask("Healthy", [] {
    return std::make_unique<methods::SeasonalNaiveForecaster>();
  }, series);
  const pipeline::ResultRow clean =
      pipeline::BenchmarkRunner().RunOne(healthy);
  ASSERT_TRUE(clean.ok) << clean.error;

  methods::FaultSpec crash_spec;
  crash_spec.kind = methods::FaultSpec::Kind::kCrash;
  methods::FaultSpec oom_spec;
  oom_spec.kind = methods::FaultSpec::Kind::kOom;
  methods::FaultSpec exit_spec;
  exit_spec.kind = methods::FaultSpec::Kind::kExitNonzero;

  const bool oom_enforced = proc::MemoryLimitEnforced();
  std::vector<pipeline::BenchmarkTask> tasks;
  tasks.push_back(healthy);
  tasks.push_back(
      CustomTask("Segfaulter", MakeFaultyFactory(crash_spec), series));
  if (oom_enforced) {
    // Without RLIMIT_AS (ASan builds) the unbounded allocator would only
    // stop at its 1 GiB safety cap and then run healthily — skip the cell
    // rather than eat the sanitizer heap.
    tasks.push_back(
        CustomTask("MemoryHog", MakeFaultyFactory(oom_spec), series));
  }
  tasks.push_back(
      CustomTask("EarlyExiter", MakeFaultyFactory(exit_spec), series));
  tasks.push_back(CustomTask("AlsoHealthy", [] {
    return std::make_unique<methods::NaiveForecaster>();
  }, series));

  pipeline::RunnerOptions options;
  options.isolation = pipeline::Isolation::kProcess;
  options.memory_limit_mb = 512;
  options.journal_path = path;
  options.num_threads = 2;  // Sandboxes must fork safely off pool threads.
  const auto rows = pipeline::BenchmarkRunner(options).Run(tasks);
  ASSERT_EQ(rows.size(), tasks.size());

  // Healthy cells completed with metrics bit-identical to the clean run
  // (the sandbox round-trips rows through the %.17g journal encoding).
  ASSERT_TRUE(rows.front().ok) << rows.front().error;
  for (const auto& [metric, value] : clean.metrics) {
    EXPECT_EQ(rows.front().metrics.at(metric), value)
        << eval::MetricName(metric) << " changed under process isolation";
  }
  ASSERT_TRUE(rows.back().ok) << rows.back().error;

  // The killers are classified, not fatal.
  EXPECT_FALSE(rows[1].ok);
  EXPECT_NE(rows[1].error.find("CRASHED"), std::string::npos)
      << rows[1].error;
  if (oom_enforced) {
    EXPECT_FALSE(rows[2].ok);
    EXPECT_NE(rows[2].error.find("RESOURCE_EXHAUSTED"), std::string::npos)
        << rows[2].error;
  }
  const pipeline::ResultRow& exiter = rows[rows.size() - 2];
  EXPECT_FALSE(exiter.ok);
  EXPECT_NE(exiter.error.find("ABORTED"), std::string::npos) << exiter.error;

  // The journal recorded every cell with its failure class.
  const auto journaled = pipeline::LoadJournal(path);
  ASSERT_EQ(journaled.size(), tasks.size());

  // Resume executes nothing: every cell (including the crashed and the
  // OOMed one) is a finished outcome, so no new journal rows appear and the
  // returned rows match the first run.
  pipeline::RunnerOptions resuming = options;
  resuming.resume = true;
  const auto second = pipeline::BenchmarkRunner(resuming).Run(tasks);
  ASSERT_EQ(second.size(), rows.size());
  EXPECT_EQ(pipeline::LoadJournal(path).size(), tasks.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(second[i].ok, rows[i].ok) << i;
    EXPECT_EQ(second[i].error, rows[i].error) << i;
  }
  std::remove(path.c_str());
}

TEST(ProcessIsolation, SandboxedDeadlineStillProducesTimeoutRows) {
  const ts::TimeSeries series = CleanSeries(200, 21);
  methods::FaultSpec hang;
  hang.kind = methods::FaultSpec::Kind::kHangFit;
  hang.sleep_ms = 5000.0;

  pipeline::RunnerOptions options;
  options.isolation = pipeline::Isolation::kProcess;
  options.deadline_seconds = 0.1;
  const auto start = std::chrono::steady_clock::now();
  const pipeline::ResultRow row = pipeline::BenchmarkRunner(options).RunOne(
      CustomTask("Hung", MakeFaultyFactory(hang), series));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(row.ok);
  EXPECT_NE(row.error.find("DEADLINE_EXCEEDED"), std::string::npos)
      << row.error;
  // SIGKILLed at the hard cutoff — the child does not sit out the stall.
  EXPECT_LT(elapsed, 2.0);
}

TEST(ProcessIsolation, FallbackRescuesCrashingPrimary) {
  const ts::TimeSeries series = CleanSeries(300, 22);
  methods::FaultSpec crash_spec;
  crash_spec.kind = methods::FaultSpec::Kind::kCrash;

  pipeline::RunnerOptions options;
  options.isolation = pipeline::Isolation::kProcess;
  options.fallback_method = "SeasonalNaive";
  const pipeline::ResultRow row = pipeline::BenchmarkRunner(options).RunOne(
      CustomTask("Segfaulter", MakeFaultyFactory(crash_spec), series));
  EXPECT_TRUE(row.ok) << row.error;
  EXPECT_TRUE(row.used_fallback);
  EXPECT_NE(row.error.find("CRASHED"), std::string::npos) << row.error;
  EXPECT_TRUE(std::isfinite(row.metrics.at(eval::Metric::kMae)));
}

// Writes diagnostics to stderr, then segfaults — the shape of a real native
// method dying mid-Fit. Only meaningful under process isolation.
class NoisyCrashingForecaster : public methods::Forecaster {
 public:
  std::string name() const override { return "NoisyCrasher"; }
  void Fit(const ts::TimeSeries&) override {
    std::fprintf(stderr, "loading weights\n");
    std::fprintf(stderr, "fatal: poisoned weights at layer 3\n");
    std::fflush(stderr);
    std::signal(SIGSEGV, SIG_DFL);
    std::raise(SIGSEGV);
  }
  ts::TimeSeries Forecast(const ts::TimeSeries&,
                          std::size_t horizon) override {
    return ts::TimeSeries::Univariate(std::vector<double>(horizon, 0.0));
  }
};

TEST(ProcessIsolation, FailedRowCarriesChildStderrTail) {
  const std::string path = testing::TempDir() + "/tfb_stderr_tail.jsonl";
  std::remove(path.c_str());
  const ts::TimeSeries series = CleanSeries(300, 25);

  std::vector<pipeline::BenchmarkTask> tasks;
  tasks.push_back(CustomTask("NoisyCrasher", [] {
    return std::make_unique<NoisyCrashingForecaster>();
  }, series));
  tasks.push_back(CustomTask("Healthy", [] {
    return std::make_unique<methods::SeasonalNaiveForecaster>();
  }, series));

  pipeline::RunnerOptions options;
  options.isolation = pipeline::Isolation::kProcess;
  options.journal_path = path;
  const auto rows = pipeline::BenchmarkRunner(options).Run(tasks);
  ASSERT_EQ(rows.size(), 2u);

  // The child's last words reach the failed row...
  EXPECT_FALSE(rows[0].ok);
  EXPECT_NE(rows[0].error.find("CRASHED"), std::string::npos)
      << rows[0].error;
  EXPECT_NE(rows[0].stderr_tail.find("poisoned weights at layer 3"),
            std::string::npos)
      << rows[0].stderr_tail;
  // ...while healthy rows stay clean.
  ASSERT_TRUE(rows[1].ok) << rows[1].error;
  EXPECT_TRUE(rows[1].stderr_tail.empty());

  // The tail round-trips the journal for post-hoc forensics.
  const auto journaled = pipeline::LoadJournal(path);
  ASSERT_EQ(journaled.size(), 2u);
  const auto& crashed = journaled[0].method == "NoisyCrasher" ? journaled[0]
                                                              : journaled[1];
  EXPECT_NE(crashed.stderr_tail.find("poisoned weights"), std::string::npos)
      << crashed.stderr_tail;

  // And surfaces in the report's failure footer as indented stderr lines.
  std::ostringstream os;
  report::PrintFailureSummary(os, rows);
  EXPECT_NE(os.str().find("stderr| fatal: poisoned weights at layer 3"),
            std::string::npos)
      << os.str();
  std::remove(path.c_str());
}

TEST(FaultIsolation, RetryBackoffIsExponentialDeterministicAndNoted) {
  const ts::TimeSeries series = CleanSeries(300, 23);
  // Fails on the first two instantiations, then recovers.
  auto instances = std::make_shared<std::atomic<int>>(0);
  const methods::ForecasterFactory flaky = [instances] {
    methods::FaultSpec spec;
    if (instances->fetch_add(1) < 2) spec.kind = methods::FaultSpec::Kind::kNaN;
    return std::make_unique<methods::FaultInjectingForecaster>(spec);
  };

  pipeline::RunnerOptions options;
  options.max_retries = 2;
  options.retry_backoff_ms = 30.0;
  const auto start = std::chrono::steady_clock::now();
  const pipeline::ResultRow row = pipeline::BenchmarkRunner(options).RunOne(
      CustomTask("Flaky", flaky, series));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(row.ok) << row.error;
  EXPECT_EQ(row.attempts, 3u);
  EXPECT_NE(row.note.find("succeeded on attempt 3"), std::string::npos)
      << row.note;
  EXPECT_NE(row.note.find("backed off"), std::string::npos) << row.note;
  // Two backoffs at 30ms*2^0*j and 30ms*2^1*j with jitter in [0.5, 1.5):
  // at least 15 + 30 = 45ms must have elapsed.
  EXPECT_GE(elapsed_ms, 45.0);

  // Determinism: the same task retried again produces the same note (same
  // jittered delays).
  instances->store(0);
  const pipeline::ResultRow again = pipeline::BenchmarkRunner(options).RunOne(
      CustomTask("Flaky", flaky, series));
  EXPECT_EQ(again.note, row.note);
}

TEST(FaultIsolation, RetryBackoffIsCappedAndTheCapIsNoted) {
  const ts::TimeSeries series = CleanSeries(300, 27);
  auto instances = std::make_shared<std::atomic<int>>(0);
  const methods::ForecasterFactory flaky = [instances] {
    methods::FaultSpec spec;
    if (instances->fetch_add(1) < 2) spec.kind = methods::FaultSpec::Kind::kNaN;
    return std::make_unique<methods::FaultInjectingForecaster>(spec);
  };

  // Exponential base 40ms with jitter in [0.5, 1.5) puts both retry delays
  // (40*2^0*j >= 20ms, 40*2^1*j >= 40ms) above a 10ms ceiling, so the cap
  // must engage on every backoff.
  pipeline::RunnerOptions options;
  options.max_retries = 2;
  options.retry_backoff_ms = 40.0;
  options.retry_backoff_max_ms = 10.0;
  const auto start = std::chrono::steady_clock::now();
  const pipeline::ResultRow row = pipeline::BenchmarkRunner(options).RunOne(
      CustomTask("Flaky", flaky, series));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(row.ok) << row.error;
  EXPECT_EQ(row.attempts, 3u);
  // The journal note distinguishes a capped delay from a naturally short
  // one, and reports the effective (clamped) value.
  EXPECT_NE(row.note.find("backed off 10ms (capped) before attempt 2"),
            std::string::npos)
      << row.note;
  EXPECT_NE(row.note.find("backed off 10ms (capped) before attempt 3"),
            std::string::npos)
      << row.note;
  // Two capped 10ms waits: the uncapped schedule would be >= 60ms of sleep;
  // a generous wall bound still proves the clamp actually shortened it.
  EXPECT_GE(elapsed_ms, 20.0);

  // An uncapped run of the same task backs off longer and says so.
  instances->store(0);
  options.retry_backoff_max_ms = 30000.0;
  const pipeline::ResultRow uncapped =
      pipeline::BenchmarkRunner(options).RunOne(
          CustomTask("Flaky", flaky, series));
  EXPECT_EQ(uncapped.note.find("(capped)"), std::string::npos)
      << uncapped.note;
}

TEST(FaultIsolation, HangThenCrashIsClassifiedNotFatalUnderIsolation) {
  // The sharded executor's worker-death test double must also behave under
  // plain --isolate=process: the sandbox waits out the hang, classifies the
  // non-zero exit, and the grid completes.
  const ts::TimeSeries series = CleanSeries(300, 28);
  methods::FaultSpec spec;
  spec.kind = methods::FaultSpec::Kind::kHangThenCrash;
  spec.sleep_ms = 100.0;
  spec.exit_code = 7;

  std::vector<pipeline::BenchmarkTask> tasks;
  tasks.push_back(
      CustomTask("HangThenCrash", MakeFaultyFactory(spec), series));
  tasks.push_back(CustomTask("Healthy", [] {
    return std::make_unique<methods::SeasonalNaiveForecaster>();
  }, series));

  pipeline::RunnerOptions options;
  options.isolation = pipeline::Isolation::kProcess;
  const auto rows = pipeline::BenchmarkRunner(options).Run(tasks);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rows[0].ok);
  EXPECT_NE(rows[0].error.find("ABORTED"), std::string::npos) << rows[0].error;
  EXPECT_NE(rows[0].error.find("code 7"), std::string::npos) << rows[0].error;
  ASSERT_TRUE(rows[1].ok) << rows[1].error;
}

TEST(FaultIsolation, JournalSkipsTornFinalLine) {
  const std::string path = testing::TempDir() + "/tfb_torn_journal.jsonl";
  std::remove(path.c_str());

  pipeline::ResultRow a;
  a.dataset = "D";
  a.method = "m1";
  a.horizon = 12;
  a.ok = true;
  a.metrics[eval::Metric::kMae] = 0.25;
  ASSERT_TRUE(pipeline::AppendJournal(path, a));
  pipeline::ResultRow b = a;
  b.method = "m2";
  ASSERT_TRUE(pipeline::AppendJournal(path, b));
  // Simulate a worker killed mid-append: half of b's line again, no newline.
  {
    const std::string full = pipeline::JournalLine(b);
    std::ofstream os(path, std::ios::app);
    os << full.substr(0, full.size() / 2);
  }

  std::size_t skipped = 0;
  const auto rows = pipeline::LoadJournal(path, &skipped);
  ASSERT_EQ(rows.size(), 2u);  // Torn line skipped, not fatal.
  EXPECT_EQ(skipped, 1u);
  EXPECT_EQ(rows[0].method, "m1");
  EXPECT_EQ(rows[1].method, "m2");

  // Resume over the torn journal still works and only re-runs what is
  // genuinely missing.
  const ts::TimeSeries series = CleanSeries(300, 24);
  auto instances = std::make_shared<std::atomic<int>>(0);
  const methods::ForecasterFactory counting = [instances] {
    instances->fetch_add(1);
    return std::make_unique<methods::SeasonalNaiveForecaster>();
  };
  std::vector<pipeline::BenchmarkTask> tasks;
  for (const char* method : {"m1", "m2", "m3"}) {
    pipeline::BenchmarkTask task = CustomTask(method, counting, series);
    task.dataset = "D";
    tasks.push_back(std::move(task));
  }
  pipeline::RunnerOptions options;
  options.journal_path = path;
  options.resume = true;
  const auto rows2 = pipeline::BenchmarkRunner(options).Run(tasks);
  ASSERT_EQ(rows2.size(), 3u);
  EXPECT_EQ(instances->load(), 1);  // Only m3 ran.
  EXPECT_EQ(rows2[0].metrics.at(eval::Metric::kMae), 0.25);

  // The append over the torn fragment terminated it first, so m3's row sits
  // on its own line: the healed journal now covers all three cells and a
  // further resume executes nothing.
  std::size_t skipped_after = 0;
  const auto healed = pipeline::LoadJournal(path, &skipped_after);
  ASSERT_EQ(healed.size(), 3u);
  EXPECT_EQ(skipped_after, 1u);  // The fragment itself, isolated.
  EXPECT_EQ(healed[2].method, "m3");
  const auto rows3 = pipeline::BenchmarkRunner(options).Run(tasks);
  ASSERT_EQ(rows3.size(), 3u);
  EXPECT_EQ(instances->load(), 1);  // Still 1: nothing re-ran.
  std::remove(path.c_str());
}

TEST(FaultIsolation, ConcurrentJournalAppendsNeverInterleave) {
  const std::string path = testing::TempDir() + "/tfb_concurrent_journal.jsonl";
  std::remove(path.c_str());
  constexpr int kThreads = 8;
  constexpr int kRowsPerThread = 25;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &path] {
      for (int i = 0; i < kRowsPerThread; ++i) {
        pipeline::ResultRow row;
        row.dataset = "thread" + std::to_string(t);
        // A long note makes torn interleavings overwhelmingly likely if
        // appends were not atomic.
        row.note = std::string(2048, 'a' + static_cast<char>(t));
        row.method = "m" + std::to_string(i);
        row.horizon = 1;
        row.ok = true;
        ASSERT_TRUE(pipeline::AppendJournal(path, row));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::size_t skipped = 99;
  const auto rows = pipeline::LoadJournal(path, &skipped);
  EXPECT_EQ(rows.size(),
            static_cast<std::size_t>(kThreads * kRowsPerThread));
  EXPECT_EQ(skipped, 0u);
  std::remove(path.c_str());
}

TEST(FaultIsolation, FailureSummaryGroupsByClass) {
  auto make_row = [](const std::string& method, const std::string& error) {
    pipeline::ResultRow row;
    row.dataset = "ILI";
    row.method = method;
    row.horizon = 12;
    row.ok = error.empty();
    row.error = error;
    return row;
  };
  const std::vector<pipeline::ResultRow> rows = {
      make_row("Good", ""),
      make_row("Hung1", "DEADLINE_EXCEEDED: over budget"),
      make_row("Hung2", "DEADLINE_EXCEEDED: also over budget"),
      make_row("Segv", "CRASHED: sandboxed task crashed (signal 11)"),
      make_row("Hog", "RESOURCE_EXHAUSTED: hit its 512 MiB memory limit"),
      make_row("Odd", "something free-form went wrong"),
  };
  std::ostringstream os;
  report::PrintFailureSummary(os, rows);
  const std::string text = os.str();
  EXPECT_NE(text.find("failures: 5 of 6"), std::string::npos) << text;
  EXPECT_NE(text.find("DEADLINE_EXCEEDED (2):"), std::string::npos) << text;
  EXPECT_NE(text.find("CRASHED (1):"), std::string::npos) << text;
  EXPECT_NE(text.find("RESOURCE_EXHAUSTED (1):"), std::string::npos) << text;
  EXPECT_NE(text.find("OTHER (1):"), std::string::npos) << text;
  // Both timeout cells sit under the one DEADLINE_EXCEEDED heading.
  EXPECT_LT(text.find("Hung1"), text.find("CRASHED")) << text;
  EXPECT_LT(text.find("Hung2"), text.find("CRASHED")) << text;
}

TEST(FaultIsolation, ReportRendersFailedCellsAsDashes) {
  pipeline::ResultRow good;
  good.dataset = "ILI";
  good.method = "VAR";
  good.horizon = 12;
  good.ok = true;
  good.metrics[eval::Metric::kMae] = 0.5;
  pipeline::ResultRow bad;
  bad.dataset = "ILI";
  bad.method = "Broken";
  bad.horizon = 12;
  bad.ok = false;
  bad.error = "DEADLINE_EXCEEDED: boom";
  // Stale values attached to a failed row must not be printed.
  bad.metrics[eval::Metric::kMae] = 0.0;

  const std::vector<pipeline::ResultRow> rows = {good, bad};
  std::ostringstream table;
  report::PrintTable(table, rows, {eval::Metric::kMae});
  EXPECT_NE(table.str().find("0.5"), std::string::npos);
  EXPECT_NE(table.str().find("-"), std::string::npos);
  EXPECT_NE(table.str().find("failures: 1 of 2"), std::string::npos)
      << table.str();
  EXPECT_NE(table.str().find("boom"), std::string::npos);

  std::ostringstream pivot;
  report::PrintPivot(pivot, rows, eval::Metric::kMae);
  const std::string pivot_text = pivot.str();
  EXPECT_NE(pivot_text.find("-"), std::string::npos);
  EXPECT_EQ(pivot_text.find("nan"), std::string::npos) << pivot_text;

  const std::string csv_path = testing::TempDir() + "/tfb_failed_cells.csv";
  ASSERT_TRUE(report::WriteCsv(csv_path, rows, {eval::Metric::kMae}));
  std::ifstream in(csv_path);
  std::stringstream csv;
  csv << in.rdbuf();
  EXPECT_NE(csv.str().find("false,false,DEADLINE_EXCEEDED: boom"),
            std::string::npos)
      << csv.str();
  // The failed row's stale metric value is not exported.
  EXPECT_EQ(csv.str().find("Broken,12,0"), std::string::npos) << csv.str();
  std::remove(csv_path.c_str());
}

}  // namespace
}  // namespace tfb
