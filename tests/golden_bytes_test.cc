// Golden bytes of every on-disk and on-wire format: the exact output of
// each writer for fixed inputs. Round-trip tests elsewhere cannot catch a
// change that alters writer and reader the same way; these can. A failure
// here means old journals, TFBM files or mixed-version shard fleets would
// stop interoperating, so update the expected values only together with a
// format version bump.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "tfb/base/crc32.h"
#include "tfb/pipeline/journal.h"
#include "tfb/pipeline/method_registry.h"
#include "tfb/pipeline/telemetry.h"
#include "tfb/pipeline/transport.h"
#include "tfb/pipeline/wire.h"
#include "tfb/serve/model_store.h"

namespace tfb {
namespace {

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

pipeline::BenchmarkTask GoldenTask() {
  pipeline::BenchmarkTask task;
  task.dataset = "ETTh2";
  task.method = "VAR";
  task.horizon = 2;
  // Three steps of a two-channel series, row-major.
  task.series = ts::TimeSeries(linalg::Matrix::FromRowMajor(
      3, 2, {1.5, -2.25, 0.1, 1e300, -0.0, 5e-324}));
  task.series.set_name("golden");
  task.series.set_frequency(ts::Frequency::kHourly);
  task.series.set_domain(ts::Domain::kElectricity);
  task.series.set_seasonal_period(24);
  task.params.horizon = 2;
  task.params.lookback = 6;
  task.params.period = 24;
  task.params.seed = 0x0102030405060708ull;
  task.params.train_epochs = -1;
  task.rolling.metrics = {eval::Metric::kMae, eval::Metric::kMase};
  task.rolling.stride = 1;
  task.rolling.split.train = 0.7;
  task.rolling.split.val = 0.1;
  task.rolling.split.test = 0.2;
  task.rolling.scaler = ts::ScalerKind::kMinMax;
  task.rolling.max_windows = 3;
  task.rolling.batch_size = 16;
  task.rolling.drop_last = true;
  task.rolling.seasonality = 24;
  task.hyper_search = true;
  task.max_hyper_sets = 8;
  return task;
}

TEST(GoldenBytes, SerializeTask) {
  EXPECT_EQ(Hex(pipeline::SerializeTask(GoldenTask())),
            "0100000000000000050000000000000045545468320300000000000000564152"
            "02000000000000000600000000000000676f6c64656e05011800000000000000"
            "03000000000000000200000000000000000000000000f83f00000000000002c0"
            "9a9999999999b93f9c7500883ce4377e00000000000000800100000000000000"
            "0200000000000000060000000000000018000000000000000807060504030201"
            "ffffffffffffffff020000000000000000070100000000000000666666666666"
            "e63f9a9999999999b93f9a9999999999c93f0203000000000000001000000000"
            "000000011800000000000000010800000000000000");
}

TEST(GoldenBytes, SerializeWorkerOptions) {
  pipeline::RunnerOptions options;
  options.num_threads = 3;
  options.hyper_val_windows = 2;
  options.deadline_seconds = 12.5;
  options.max_retries = 4;
  options.retry_backoff_ms = 25.0;
  options.retry_backoff_max_ms = 400.0;
  options.fallback_method = "Naive";
  options.isolation = pipeline::Isolation::kProcess;
  options.memory_limit_mb = 512;
  options.cpu_limit_seconds = 0.25;
  EXPECT_EQ(Hex(pipeline::SerializeWorkerOptions(options, true)),
            "0200000000000000030000000000000002000000000000000000000000002940"
            "0400000000000000000000000000394000000000000079400500000000000000"
            "4e61697665010002000000000000000000000000d03f01");
}

TEST(GoldenBytes, SerializeWorkerTelemetry) {
  pipeline::WorkerTelemetry t;
  t.pid = 4242;
  t.seq = 7;
  t.trace_id = 0xabcdef;
  t.cpu_seconds = 1.25;
  t.peak_rss_mb = 64.5;
  t.tasks_completed = 9;
  pipeline::WorkerTelemetry::Span span;
  span.name = "fit";
  span.category = "eval";
  span.args = "{\"method\":\"VAR\"}";
  span.phase = 'X';
  span.ts_us = 1000.5;
  span.dur_us = 20.25;
  span.tid = 17;
  t.spans.push_back(span);
  t.counter_deltas["tfb_tasks_total"] = 3.0;
  t.gauges["tfb_queue_depth"] = -1.5;
  pipeline::WorkerTelemetry::HistogramDelta h;
  h.name = "tfb_task_seconds";
  h.bounds = {0.1, 1.0};
  h.bucket_deltas = {1, 0, 2};
  h.sum_delta = 4.75;
  t.histograms.push_back(h);
  EXPECT_EQ(Hex(pipeline::SerializeWorkerTelemetry(t)),
            "010000000000000092100000000000000700000000000000efcdab0000000000"
            "000000000000f43f000000000020504009000000000000000100000000000000"
            "030000000000000066697404000000000000006576616c10000000000000007b"
            "226d6574686f64223a22564152227d580000000000448f400000000000403440"
            "110000000000000001000000000000000f000000000000007466625f7461736b"
            "735f746f74616c000000000000084001000000000000000f0000000000000074"
            "66625f71756575655f6465707468000000000000f8bf01000000000000001000"
            "0000000000007466625f7461736b5f7365636f6e647302000000000000009a99"
            "99999999b93f000000000000f03f030000000000000001000000000000000000"
            "00000000000002000000000000000000000000001340");
}

TEST(GoldenBytes, EncodeFrame) {
  pipeline::Frame frame;
  frame.type = pipeline::FrameType::kRow;
  frame.payload = "3 12 1 0 0.5\n{\"dataset\":\"ILI\"}";
  EXPECT_EQ(Hex(pipeline::EncodeFrame(frame)),
            "5446521e000000332031322031203020302e350a7b2264617461736574223a22"
            "494c49227deb6c70a5");
}

std::string ModelEnvelope(
    const std::string& method, std::size_t period = 0,
    const ts::TimeSeries& train = ts::TimeSeries::Univariate(
        {1.0, 2.0, 3.5, 4.0, 2.5, 1.0, 0.5, 3.0, 2.0, 4.5, 1.5, 2.5})) {
  pipeline::MethodParams params;
  params.horizon = 4;
  params.lookback = 8;
  params.period = period;
  params.seed = 11;
  const auto config = pipeline::MakeMethod(method, params);
  EXPECT_TRUE(config.has_value()) << method;
  if (!config.has_value()) return std::string();
  auto model = config->factory();
  model->Fit(train);
  std::string bytes;
  EXPECT_TRUE(serve::SerializeModel(*model, method, params, &bytes).ok());
  return bytes;
}

TEST(GoldenBytes, ModelEnvelope) {
  EXPECT_EQ(Hex(ModelEnvelope("Naive")),
            "5446424d010000001a0252e205000000000000004e6169766504000000000000"
            "00080000000000000000000000000000000b0000000000000000000000000000"
            "0001");
}

// A fitted KalmanFilter on a trending period-6 series: its envelope holds
// the Nelder-Mead noise variances, so it pins every bit of the filter's
// likelihood arithmetic, not just the TFBM layout.
TEST(GoldenBytes, KalmanModelEnvelope) {
  const double kSeason[6] = {0.0, 2.0, 3.0, 1.0, -1.0, -2.5};
  std::vector<double> y;
  for (int t = 0; t < 60; ++t) {
    y.push_back(10.0 + 0.25 * t + kSeason[t % 6] + 0.1 * ((t * 7) % 5));
  }
  EXPECT_EQ(
      Hex(ModelEnvelope("KalmanFilter", 6, ts::TimeSeries::Univariate(y))),
            "5446424d01000000674fcb9e0c000000000000004b616c6d616e46696c746572"
            "0400000000000000080000000000000006000000000000000b00000000000000"
            "0000000000000000010100000000000000d308e8a89c77513dffe64422407143"
            "390d9b449a82ace93ccabf60024d77b73f060000000000000002000000000000"
            "00");
}

// A seasonal series rounded to steps of 0.5, so that its lag columns hold
// long runs of tied values (and, after last-value subtraction, an all-zero
// last lag).
ts::TimeSeries QuantizedSeries() {
  std::vector<double> y;
  for (int t = 0; t < 96; ++t) {
    y.push_back(0.5 * std::round(4.0 * std::sin(0.5 * t) + (t * 7) % 3));
  }
  return ts::TimeSeries::Univariate(y);
}

std::uint32_t Crc(const std::string& bytes) {
  return base::Crc32(bytes.data(), bytes.size());
}

// Fitted tree ensembles: their envelopes hold every split threshold and leaf
// mean, so they pin the CART split search bit for bit. The envelopes are too
// large to spell out in hex; their length and CRC-32 stand in.
TEST(GoldenBytes, RandomForestModelEnvelope) {
  const std::string bytes = ModelEnvelope("RandomForest", 0, QuantizedSeries());
  EXPECT_EQ(bytes.size(), 75209u);
  EXPECT_EQ(Crc(bytes), 0xe1ff37e6u);
}

TEST(GoldenBytes, XgbModelEnvelope) {
  const std::string bytes = ModelEnvelope("XGB", 0, QuantizedSeries());
  EXPECT_EQ(bytes.size(), 49608u);
  EXPECT_EQ(Crc(bytes), 0xfcd21f5eu);
}

// Fitted deep-learning envelopes hold every trained weight, so they pin the
// forward and backward passes and every GEMM they run, bit for bit.
TEST(GoldenBytes, TcnModelEnvelope) {
  const std::string bytes = ModelEnvelope("TCN", 0, QuantizedSeries());
  EXPECT_EQ(bytes.size(), 13825u);
  EXPECT_EQ(Crc(bytes), 0x68bbb0c8u);
}

TEST(GoldenBytes, MlpModelEnvelope) {
  const std::string bytes = ModelEnvelope("MLP", 0, QuantizedSeries());
  EXPECT_EQ(bytes.size(), 40161u);
  EXPECT_EQ(Crc(bytes), 0x9d422ce7u);
}

TEST(GoldenBytes, NBeatsModelEnvelope) {
  const std::string bytes = ModelEnvelope("N-BEATS", 0, QuantizedSeries());
  EXPECT_EQ(bytes.size(), 132869u);
  EXPECT_EQ(Crc(bytes), 0xd895522fu);
}

TEST(GoldenBytes, JournalLine) {
  pipeline::ResultRow row;
  row.dataset = "ILI";
  row.method = "SeasonalNaive";
  row.horizon = 24;
  row.ok = false;
  row.error = "CRASHED: signal 11 \"SIGSEGV\"";
  row.selected_config = "SeasonalNaive(period=52)";
  row.used_fallback = true;
  row.note = "retry\\succeeded";
  row.attempts = 2;
  row.num_windows = 5;
  row.fit_seconds = 0.125;
  row.inference_ms_per_window = 1.0 / 3.0;
  row.cpu_user_seconds = 2.5;
  row.cpu_sys_seconds = 0.0;
  row.peak_rss_mb = 42.75;
  row.stderr_tail = std::string("line1\nline2\r\t\x01\x1f end") + '\0';
  row.metrics[eval::Metric::kMae] = 0.1;
  row.metrics[eval::Metric::kMse] = 1e-300;
  EXPECT_EQ(pipeline::JournalLine(row),
            "{\"dataset\":\"ILI\",\"method\":\"SeasonalNaive\","
            "\"horizon\":24,\"ok\":false,"
            "\"error\":\"CRASHED: signal 11 \\\"SIGSEGV\\\"\","
            "\"selected_config\":\"SeasonalNaive(period=52)\","
            "\"used_fallback\":true,\"note\":\"retry\\\\succeeded\","
            "\"attempts\":2,\"num_windows\":5,\"fit_seconds\":0.125,"
            "\"inference_ms_per_window\":0.33333333333333331,"
            "\"cpu_user_seconds\":2.5,\"cpu_sys_seconds\":0,"
            "\"peak_rss_mb\":42.75,"
            "\"stderr_tail\":\"line1\\nline2\\r\\t\\u0001\\u001f end\\u0000\","
            "\"metrics\":{\"mae\":0.10000000000000001,\"mse\":1e-300}}");
}

}  // namespace
}  // namespace tfb
