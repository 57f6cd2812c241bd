// Fleet telemetry unit tests (src/tfb/pipeline/telemetry.h): clock-offset
// estimation against skewed fake clocks, the worker batch blob round-trip,
// worker-label splicing, the coordinator-side merge (registry labels, span
// pid stitching, timestamp re-alignment), the collector's delta semantics,
// and that forked workers ship only their own telemetry.

#include "tfb/pipeline/telemetry.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tfb/obs/metrics.h"
#include "tfb/obs/trace.h"
#include "tfb/pipeline/shard.h"

namespace tfb::pipeline {
namespace {

TEST(ClockOffsetTest, MidpointRecoversSkewWithSymmetricDelays) {
  // A worker clock running 5 s ahead: every echo reads local + skew. With a
  // symmetric path (delay/2 each way), the midpoint method recovers the
  // skew exactly regardless of the RTT magnitude.
  const double skew_us = 5e6;
  std::vector<PingSample> samples;
  for (const double rtt_us : {800.0, 200.0, 1400.0}) {
    PingSample s;
    s.t_send_us = 1000.0;
    s.t_recv_us = 1000.0 + rtt_us;
    s.t_remote_us = 1000.0 + rtt_us / 2 + skew_us;
    samples.push_back(s);
  }
  EXPECT_DOUBLE_EQ(EstimateClockOffset(samples), skew_us);
}

TEST(ClockOffsetTest, PrefersMinimumRttSample) {
  // Queueing noise inflates one direction of the slow samples; only the
  // min-RTT sample is trustworthy. Estimate must come from it alone.
  std::vector<PingSample> samples;
  // Slow sample, return path delayed by 10 ms: midpoint off by ~5 ms.
  samples.push_back({0.0, 10'000.0, 2e6});
  // Fast, symmetric sample: offset exactly 2e6 - 100.
  samples.push_back({0.0, 200.0, 2e6});
  EXPECT_DOUBLE_EQ(EstimateClockOffset(samples), 2e6 - 100.0);
}

TEST(ClockOffsetTest, NegativeSkewAndDegenerateInputs) {
  std::vector<PingSample> behind;
  behind.push_back({1000.0, 1400.0, 1200.0 - 3e6});  // Worker 3 s behind.
  EXPECT_DOUBLE_EQ(EstimateClockOffset(behind), -3e6);
  EXPECT_DOUBLE_EQ(EstimateClockOffset({}), 0.0);
  // All samples with a negative RTT (local clock misbehaving): unusable.
  std::vector<PingSample> bad;
  bad.push_back({1000.0, 900.0, 5000.0});
  EXPECT_DOUBLE_EQ(EstimateClockOffset(bad), 0.0);
}

TEST(TraceContextTest, RoundTripsAndRejectsGarbage) {
  TraceContext ctx;
  ctx.trace_id = 0x1234567890abcdefull % 1000000007ull;
  ctx.parent_span = 42;
  const auto parsed = ParseTraceContext(SerializeTraceContext(ctx));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, ctx.trace_id);
  EXPECT_EQ(parsed->parent_span, 42u);
  EXPECT_FALSE(ParseTraceContext("").has_value());
  EXPECT_FALSE(ParseTraceContext("12").has_value());
  EXPECT_FALSE(ParseTraceContext("a b").has_value());
  EXPECT_FALSE(ParseTraceContext("1 2 3").has_value());
}

WorkerTelemetry MakeBatch(std::uint64_t pid, std::uint64_t seq) {
  WorkerTelemetry t;
  t.pid = pid;
  t.seq = seq;
  t.trace_id = 77;
  t.cpu_seconds = 1.25;
  t.peak_rss_mb = 64.5;
  t.tasks_completed = 9;
  WorkerTelemetry::Span s;
  s.name = "task";
  s.category = "pipeline";
  s.args = "\"dataset\":\"ILI\"";
  s.phase = 'X';
  s.ts_us = 1000.0;
  s.dur_us = 50.0;
  s.tid = 3;
  t.spans.push_back(s);
  t.counter_deltas["tfb_tasks_total"] = 4.0;
  t.gauges["tfb_queue_depth"] = 2.0;
  WorkerTelemetry::HistogramDelta h;
  h.name = "tfb_task_seconds";
  h.bounds = {0.5, 1.0};
  h.bucket_deltas = {1, 2, 0};
  h.sum_delta = 1.75;
  t.histograms.push_back(h);
  return t;
}

TEST(TelemetryBlobTest, RoundTripsEveryField) {
  const WorkerTelemetry in = MakeBatch(111, 5);
  WorkerTelemetry out;
  ASSERT_TRUE(DeserializeWorkerTelemetry(SerializeWorkerTelemetry(in), &out));
  EXPECT_EQ(out.pid, 111u);
  EXPECT_EQ(out.seq, 5u);
  EXPECT_EQ(out.trace_id, 77u);
  EXPECT_DOUBLE_EQ(out.cpu_seconds, 1.25);
  EXPECT_DOUBLE_EQ(out.peak_rss_mb, 64.5);
  EXPECT_EQ(out.tasks_completed, 9u);
  ASSERT_EQ(out.spans.size(), 1u);
  EXPECT_EQ(out.spans[0].name, "task");
  EXPECT_EQ(out.spans[0].args, "\"dataset\":\"ILI\"");
  EXPECT_EQ(out.spans[0].phase, 'X');
  EXPECT_DOUBLE_EQ(out.spans[0].ts_us, 1000.0);
  EXPECT_EQ(out.spans[0].tid, 3);
  EXPECT_EQ(out.counter_deltas.at("tfb_tasks_total"), 4.0);
  EXPECT_EQ(out.gauges.at("tfb_queue_depth"), 2.0);
  ASSERT_EQ(out.histograms.size(), 1u);
  EXPECT_EQ(out.histograms[0].bucket_deltas,
            (std::vector<std::uint64_t>{1, 2, 0}));
  EXPECT_DOUBLE_EQ(out.histograms[0].sum_delta, 1.75);
}

TEST(TelemetryBlobTest, RejectsTruncationAndTrailingBytes) {
  const std::string blob = SerializeWorkerTelemetry(MakeBatch(1, 1));
  WorkerTelemetry out;
  for (const std::size_t cut : {std::size_t{1}, blob.size() / 2,
                                blob.size() - 1}) {
    EXPECT_FALSE(
        DeserializeWorkerTelemetry(std::string_view(blob).substr(0, cut),
                                   &out))
        << "cut=" << cut;
  }
  EXPECT_FALSE(DeserializeWorkerTelemetry(blob + "x", &out));
  EXPECT_FALSE(DeserializeWorkerTelemetry("", &out));
}

TEST(SpliceWorkerLabelTest, HandlesBareAndLabeledNames) {
  EXPECT_EQ(SpliceWorkerLabel("tfb_tasks_total", "7"),
            "tfb_tasks_total{worker=\"7\"}");
  EXPECT_EQ(SpliceWorkerLabel("tfb_shed_total{reason=\"queue\"}", "7"),
            "tfb_shed_total{reason=\"queue\",worker=\"7\"}");
}

TEST(MergeWorkerTelemetryTest, AppliesMetricsUnderWorkerLabel) {
  obs::Registry registry;
  WorkerTelemetry t = MakeBatch(501, 1);
  MergeWorkerTelemetry(t, "501", /*clock_offset_us=*/0.0, &registry,
                       /*tracer=*/nullptr);
  EXPECT_DOUBLE_EQ(
      registry.GetCounter("tfb_tasks_total{worker=\"501\"}").Value(), 4.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("tfb_queue_depth{worker=\"501\"}").Value(), 2.0);
  obs::Histogram& h = registry.GetHistogram(
      "tfb_task_seconds{worker=\"501\"}", {0.5, 1.0});
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_DOUBLE_EQ(h.Sum(), 1.75);
  // A second batch accumulates (deltas, not absolutes).
  MergeWorkerTelemetry(MakeBatch(501, 2), "501", 0.0, &registry, nullptr);
  EXPECT_DOUBLE_EQ(
      registry.GetCounter("tfb_tasks_total{worker=\"501\"}").Value(), 8.0);
  EXPECT_EQ(h.Count(), 6u);
}

TEST(MergeWorkerTelemetryTest, StitchesSpansWithPidAndOffsetAlignment) {
  obs::Tracer& tracer = obs::DefaultTracer();
  tracer.Enable(256);
  // Worker clock 2 s ahead of the coordinator: its 1000 us span maps to
  // 1000 - 2e6 on the coordinator timeline.
  MergeWorkerTelemetry(MakeBatch(601, 1), "601", /*clock_offset_us=*/2e6,
                       nullptr, &tracer);
  const std::vector<obs::TraceEvent> events = tracer.Snapshot();
  tracer.Disable();
  ASSERT_EQ(events.size(), 2u);  // process_name metadata + the span.
  EXPECT_EQ(events[0].phase, 'M');
  EXPECT_STREQ(events[0].name, "process_name");
  EXPECT_EQ(events[0].pid, 601);
  EXPECT_NE(events[0].args.find("tfb_worker 601"), std::string::npos);
  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_STREQ(events[1].name, "task");
  EXPECT_EQ(events[1].pid, 601);
  EXPECT_EQ(events[1].tid, 3);
  EXPECT_DOUBLE_EQ(events[1].ts_us, 1000.0 - 2e6);
  EXPECT_DOUBLE_EQ(events[1].dur_us, 50.0);
}

TEST(MergeWorkerTelemetryTest, NamesEachWorkerProcessOnce) {
  obs::Tracer& tracer = obs::DefaultTracer();
  tracer.Enable(256);
  // Distinct pid from every other test in this binary: the metadata-once
  // guard is process-global.
  MergeWorkerTelemetry(MakeBatch(701, 1), "701", 0.0, nullptr, &tracer);
  MergeWorkerTelemetry(MakeBatch(701, 2), "701", 0.0, nullptr, &tracer);
  const std::vector<obs::TraceEvent> events = tracer.Snapshot();
  tracer.Disable();
  std::size_t metadata = 0;
  std::size_t spans = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.phase == 'M') ++metadata;
    if (e.phase == 'X') ++spans;
  }
  EXPECT_EQ(metadata, 1u);
  EXPECT_EQ(spans, 2u);
}

TEST(TelemetryCollectorTest, ShipsDeltasBetweenCollects) {
  obs::Registry& registry = obs::DefaultRegistry();
  obs::Counter& counter =
      registry.GetCounter("tfb_telemetry_collector_test_total");
  counter.Increment(3);
  TelemetryCollector collector;
  WorkerTelemetry first = collector.Collect(/*trace_id=*/1,
                                            /*tasks_completed=*/2);
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(first.trace_id, 1u);
  EXPECT_EQ(first.tasks_completed, 2u);
  EXPECT_GT(first.cpu_seconds, 0.0);
  EXPECT_GT(first.peak_rss_mb, 0.0);
  EXPECT_DOUBLE_EQ(
      first.counter_deltas.at("tfb_telemetry_collector_test_total"), 3.0);
  // Nothing moved: the counter ships no delta on the next batch.
  WorkerTelemetry second = collector.Collect(1, 2);
  EXPECT_EQ(second.seq, 2u);
  EXPECT_EQ(second.counter_deltas.count("tfb_telemetry_collector_test_total"),
            0u);
  counter.Increment(2);
  WorkerTelemetry third = collector.Collect(1, 3);
  EXPECT_DOUBLE_EQ(
      third.counter_deltas.at("tfb_telemetry_collector_test_total"), 2.0);
}

TEST(TelemetryCollectorTest, ForkedWorkersShipOnlyTheirOwnTelemetry) {
  // A socketpair worker is fork()ed from the coordinator and inherits its
  // registry totals and trace ring. None of that may come back labelled as
  // the worker's: the worker series must not repeat the parent's counter,
  // and no span recorded before the run may reappear under a worker pid.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::DefaultTracer().Enable();
  obs::DefaultRegistry()
      .GetCounter("tfb_inherited_probe_total")
      .Increment(41);
  for (int i = 0; i < 3; ++i) {
    obs::DefaultTracer().RecordComplete("inherited_probe", "test",
                                        obs::TraceNowMicros(), 1.0);
  }

  std::vector<BenchmarkTask> tasks;
  for (const char* method : {"Naive", "Mean", "Drift", "SeasonalNaive"}) {
    BenchmarkTask task;
    task.dataset = "synthetic";
    std::vector<double> x(120);
    for (std::size_t t = 0; t < x.size(); ++t) {
      x[t] = static_cast<double>(t % 12) + 0.01 * static_cast<double>(t);
    }
    task.series = ts::TimeSeries::Univariate(std::move(x));
    task.series.set_seasonal_period(12);
    task.method = method;
    task.horizon = 6;
    tasks.push_back(std::move(task));
  }
  ShardOptions shard;
  shard.transport = ShardTransport::kSocketpair;
  shard.num_workers = 2;
  const std::vector<ResultRow> rows =
      ShardCoordinator(RunnerOptions{}, shard).Run(tasks);
  const std::vector<obs::TraceEvent> trace = obs::DefaultTracer().Snapshot();
  const obs::Registry::Snapshot metrics =
      obs::DefaultRegistry().TakeSnapshot();
  obs::DefaultTracer().Disable();
  obs::SetEnabled(was_enabled);

  ASSERT_EQ(rows.size(), tasks.size());
  for (const ResultRow& row : rows) EXPECT_TRUE(row.ok) << row.error;
  EXPECT_DOUBLE_EQ(metrics.counters.at("tfb_inherited_probe_total"), 41.0);
  for (const auto& [name, value] : metrics.counters) {
    EXPECT_NE(name.rfind("tfb_inherited_probe_total{worker=", 0), 0u)
        << name << " = " << value;
  }
  const std::int64_t coordinator_pid = static_cast<std::int64_t>(getpid());
  bool saw_worker_span = false;
  for (const obs::TraceEvent& e : trace) {
    if (e.pid == coordinator_pid || e.phase != 'X') continue;
    saw_worker_span = true;
    EXPECT_NE(std::string(e.name), "inherited_probe") << "pid " << e.pid;
  }
  EXPECT_TRUE(saw_worker_span) << "workers shipped no spans at all";
}

}  // namespace
}  // namespace tfb::pipeline
