// Tests for the embedded HTTP telemetry endpoint: route contents
// (/healthz, /metrics, /status), 404s, idempotent shutdown, and — the
// acceptance scenario — concurrent scrapes against a live BenchmarkRunner
// grid without perturbing its results.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault_injection.h"
#include "tfb/tfb.h"

namespace tfb {
namespace {

using obs::HttpExporter;
using obs::HttpExporterOptions;
using obs::HttpGet;

TEST(HttpExporterTest, ServesHealthzOnEphemeralPort) {
  HttpExporter exporter({.run_id = "test-run"});
  ASSERT_TRUE(exporter.Start().ok());
  ASSERT_TRUE(exporter.serving());
  ASSERT_NE(exporter.port(), 0);

  std::string body;
  ASSERT_TRUE(HttpGet(exporter.port(), "/healthz", &body));
  EXPECT_EQ(body, "ok\n");
  EXPECT_GE(exporter.requests_served(), 1u);
  exporter.Stop();
  EXPECT_FALSE(exporter.serving());
}

TEST(HttpExporterTest, MetricsRouteIsPrometheusText) {
  obs::Registry registry;
  registry.GetCounter("tfb_exporter_test_total").Increment(3);
  HttpExporterOptions options;
  options.registry = &registry;
  HttpExporter exporter(std::move(options));
  ASSERT_TRUE(exporter.Start().ok());

  std::string body;
  ASSERT_TRUE(HttpGet(exporter.port(), "/metrics", &body));
  EXPECT_NE(body.find("# TYPE"), std::string::npos) << body;
  EXPECT_NE(body.find("tfb_exporter_test_total 3"), std::string::npos)
      << body;
  exporter.Stop();
}

TEST(HttpExporterTest, StatusRouteEchoesProgressAndRunId) {
  obs::ProgressTracker tracker;
  tracker.SetDisplay(obs::ProgressMode::kOff);
  tracker.BeginRun(5, 1);
  tracker.TaskStarted();
  tracker.TaskFinished("VAR", /*ok=*/true, /*used_fallback=*/false, 0.01);

  HttpExporterOptions options;
  options.progress = &tracker;
  options.run_id = "tfb-status-test";
  HttpExporter exporter(std::move(options));
  ASSERT_TRUE(exporter.Start().ok());

  std::string body;
  ASSERT_TRUE(HttpGet(exporter.port(), "/status", &body));
  EXPECT_NE(body.find("\"run_id\":\"tfb-status-test\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"total\":5"), std::string::npos) << body;
  EXPECT_NE(body.find("\"resumed\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"completed\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"VAR\""), std::string::npos) << body;
  exporter.Stop();
  tracker.EndRun();
}

TEST(HttpExporterTest, UnknownRouteFailsTheScrape) {
  HttpExporter exporter;
  ASSERT_TRUE(exporter.Start().ok());
  std::string body;
  EXPECT_FALSE(HttpGet(exporter.port(), "/no/such/route", &body));  // 404.
  // The exporter itself keeps serving afterwards.
  EXPECT_TRUE(HttpGet(exporter.port(), "/healthz", &body));
  const std::uint16_t port = exporter.port();
  exporter.Stop();
  exporter.Stop();  // Idempotent.
  EXPECT_FALSE(HttpGet(port, "/healthz", &body));  // Socket is closed.
}

TEST(HttpExporterTest, ConcurrentScrapesDuringLiveRunDoNotPerturbIt) {
  // A grid of slow tasks scraped continuously while it executes: every
  // scrape must succeed, every row must come back ok, and /status must
  // show live (nonzero) completion counts.
  std::vector<double> x(300);
  for (std::size_t t = 0; t < x.size(); ++t) {
    x[t] = std::sin(2.0 * M_PI * static_cast<double>(t) / 12.0);
  }
  ts::TimeSeries series = ts::TimeSeries::Univariate(std::move(x));
  series.set_seasonal_period(12);

  methods::FaultSpec slow;
  slow.kind = methods::FaultSpec::Kind::kSlowFit;
  slow.sleep_ms = 20.0;
  constexpr std::size_t kTasks = 8;
  std::vector<pipeline::BenchmarkTask> tasks;
  for (std::size_t i = 0; i < kTasks; ++i) {
    pipeline::BenchmarkTask task;
    task.dataset = "synthetic";
    task.series = series;
    task.method = "Slow" + std::to_string(i);
    task.horizon = 12;
    task.custom_candidates.push_back(
        {task.method, methods::MakeFaultyFactory(slow)});
    tasks.push_back(std::move(task));
  }

  HttpExporter exporter({.run_id = "live-scrape-test"});
  ASSERT_TRUE(exporter.Start().ok());
  const std::uint16_t port = exporter.port();

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes_ok{0};
  std::atomic<int> scrapes_failed{0};
  std::atomic<bool> saw_live_progress{false};
  std::thread scraper([&] {
    bool status_turn = true;
    while (!stop.load(std::memory_order_relaxed)) {
      std::string body;
      if (HttpGet(port, status_turn ? "/status" : "/metrics", &body)) {
        scrapes_ok.fetch_add(1, std::memory_order_relaxed);
        if (status_turn && body.find("\"completed\":0") == std::string::npos &&
            body.find("\"active\":true") != std::string::npos) {
          saw_live_progress.store(true, std::memory_order_relaxed);
        }
      } else {
        scrapes_failed.fetch_add(1, std::memory_order_relaxed);
      }
      status_turn = !status_turn;
    }
  });

  pipeline::RunnerOptions options;
  options.num_threads = 2;
  const auto rows = pipeline::BenchmarkRunner(options).Run(tasks);

  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  ASSERT_EQ(rows.size(), kTasks);
  for (const auto& row : rows) EXPECT_TRUE(row.ok) << row.error;
  EXPECT_GT(scrapes_ok.load(), 0);
  EXPECT_EQ(scrapes_failed.load(), 0);
  // At least one scrape landed mid-run and saw live, nonzero completion
  // counts (tasks sleep 20ms each, so the run spans many scrapes).
  EXPECT_TRUE(saw_live_progress.load());

  // After the run the tracker still reports the full tally.
  std::string body;
  ASSERT_TRUE(HttpGet(port, "/status", &body));
  EXPECT_NE(body.find("\"completed\":" + std::to_string(kTasks)),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"eta_seconds\":0"), std::string::npos) << body;
  exporter.Stop();
}

}  // namespace
}  // namespace tfb
