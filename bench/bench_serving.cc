// Serving-plane load bench: drives POST /forecast over real loopback HTTP
// against a warm ForecastService and reports latency percentiles and
// throughput. Three legs:
//
//  - closed loop: N clients issue requests back-to-back (each waits for
//    its response before sending the next) across a concurrency sweep;
//    QPS at saturation is the sweep's peak.
//  - open loop: requests arrive on a fixed schedule regardless of
//    completions (the "users do not wait for each other" regime), at
//    fractions of the closed-loop saturation rate; shed (429) responses
//    are counted, not retried.
//  - obs overhead: closed loop at fixed concurrency with metrics off vs
//    on, against the ≤2% budget of DESIGN.md "Observability".
//
// Emits BENCH_serving.json to the working directory:
//   {"hardware_threads": H, "model": "...", "history_points": P,
//    "horizon": h,
//    "closed_loop": [{"clients": C, "requests": N, "qps": ...,
//                     "p50_ms": ..., "p95_ms": ...}, ...],
//    "saturation": {"clients": C, "qps": ...},
//    "open_loop": [{"offered_qps": ..., "achieved_qps": ...,
//                   "completed": N, "shed": S,
//                   "p50_ms": ..., "p95_ms": ...}, ...],
//    "obs": {"off_qps": ..., "on_qps": ..., "overhead_pct": ...}}
//
// Honesty note: clients, the epoll loop, and the dispatcher crew all
// time-share the host's cores (one, in the CI container), so percentiles
// include client-side scheduling noise and QPS undercounts what a
// dedicated server box would serve. The shape — saturation behaviour,
// open-loop queueing tail, shed kicking in past saturation — is the
// reproduction target; hardware_threads is carried in the JSON so readers
// can tell which regime produced the numbers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "tfb/obs/http_exporter.h"
#include "tfb/obs/metrics.h"
#include "tfb/pipeline/method_registry.h"
#include "tfb/base/json.h"
#include "tfb/serve/registry.h"
#include "tfb/serve/service.h"
#include "tfb/stats/rng.h"

namespace {

using namespace tfb;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kHistoryPoints = 168;  // One weekly cycle, hourly.
constexpr std::size_t kHorizon = 24;
constexpr const char* kMethod = "Theta";

ts::TimeSeries BenchSeries(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t t = 0; t < n; ++t) {
    x[t] = 10.0 + 4.0 * std::sin(2.0 * M_PI * static_cast<double>(t) / 24.0) +
           rng.Gaussian(0.0, 0.4);
  }
  ts::TimeSeries s = ts::TimeSeries::Univariate(std::move(x));
  s.set_seasonal_period(24);
  return s;
}

std::string RequestBody() {
  const ts::TimeSeries history = BenchSeries(kHistoryPoints, 99);
  std::string body = "{\"model\":\"bench\",\"horizon\":" +
                     std::to_string(kHorizon) + ",\"history\":[";
  for (std::size_t t = 0; t < history.length(); ++t) {
    if (t != 0) body += ',';
    base::AppendJsonDouble(&body, history.at(t, 0));
  }
  body += "]}";
  return body;
}

double PercentileMs(std::vector<double>* latencies_ms, double q) {
  if (latencies_ms->empty()) return 0.0;
  std::sort(latencies_ms->begin(), latencies_ms->end());
  const double rank = q * static_cast<double>(latencies_ms->size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, latencies_ms->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*latencies_ms)[lo] * (1.0 - frac) + (*latencies_ms)[hi] * frac;
}

struct LegResult {
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t errors = 0;
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double qps() const {
    return seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0;
  }
};

/// Closed loop: `clients` threads, each firing back-to-back requests until
/// the deadline. Every request opens a fresh connection (the exporter is
/// HTTP/1.0 close-per-request), so connection setup is part of the cost.
LegResult RunClosedLoop(std::uint16_t port, const std::string& body,
                        std::size_t clients, double seconds) {
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> shed{0};
  std::atomic<std::size_t> errors{0};
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const Clock::time_point start = Clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < deadline) {
        int code = 0;
        std::string response;
        const Clock::time_point sent = Clock::now();
        const bool ok =
            obs::HttpPost(port, "/forecast", body, &code, &response);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - sent)
                .count();
        if (ok && code == 200) {
          latencies[c].push_back(ms);
          completed.fetch_add(1, std::memory_order_relaxed);
        } else if (ok && code == 429) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LegResult result;
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.completed = completed.load();
  result.shed = shed.load();
  result.errors = errors.load();
  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  result.p50_ms = PercentileMs(&all, 0.50);
  result.p95_ms = PercentileMs(&all, 0.95);
  return result;
}

/// Open loop: arrivals on a fixed schedule, issued by a sender pool large
/// enough that a slow response does not delay the next arrival.
LegResult RunOpenLoop(std::uint16_t port, const std::string& body,
                      double offered_qps, double seconds) {
  const std::size_t total =
      static_cast<std::size_t>(offered_qps * seconds);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / offered_qps));
  constexpr std::size_t kSenders = 16;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> shed{0};
  std::atomic<std::size_t> errors{0};
  std::vector<std::vector<double>> latencies(kSenders);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> senders;
  for (std::size_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) return;
        std::this_thread::sleep_until(start + interval * (i + 1));
        int code = 0;
        std::string response;
        // Latency is measured from the *scheduled* arrival, so queueing
        // delay inside the server shows up in the tail (the open-loop
        // point of view).
        const Clock::time_point scheduled = start + interval * (i + 1);
        const bool ok =
            obs::HttpPost(port, "/forecast", body, &code, &response);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      scheduled)
                .count();
        if (ok && code == 200) {
          latencies[s].push_back(ms);
          completed.fetch_add(1, std::memory_order_relaxed);
        } else if (ok && code == 429) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : senders) t.join();
  LegResult result;
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.completed = completed.load();
  result.shed = shed.load();
  result.errors = errors.load();
  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  result.p50_ms = PercentileMs(&all, 0.50);
  result.p95_ms = PercentileMs(&all, 0.95);
  return result;
}

}  // namespace

int main() {
  const unsigned hardware = std::thread::hardware_concurrency();

  // One warm model; a batch groups every request onto one lease, so this
  // measures the dispatch/batching machinery plus real forecast compute.
  serve::ModelRegistry registry(4);
  {
    pipeline::MethodParams params;
    params.horizon = kHorizon;
    auto config = pipeline::MakeMethod(kMethod, params);
    TFB_CHECK(config.has_value());
    serve::ModelArtifact artifact;
    artifact.method = kMethod;
    artifact.params = params;
    artifact.forecaster = config->factory();
    artifact.forecaster->Fit(BenchSeries(720, 7));
    TFB_CHECK(registry.AddModel("bench", std::move(artifact)).ok());
  }

  serve::ForecastServiceOptions options;
  options.max_queue = 512;
  options.max_batch = 16;
  options.batch_linger_ms = 1;
  options.dispatch_threads = 2;
  serve::ForecastService service(&registry, options);
  service.Start();
  obs::HttpExporter exporter({.run_id = "bench_serving"});
  service.InstallRoutes(&exporter);
  TFB_CHECK(exporter.Start().ok());
  const std::uint16_t port = exporter.port();
  const std::string body = RequestBody();

  obs::SetEnabled(true);
  std::printf("bench_serving: %s model, %zu-point history, horizon %zu, "
              "port %u, hardware_threads=%u\n\n",
              kMethod, kHistoryPoints, kHorizon, port, hardware);

  // Warm-up: populate caches, fault in code paths.
  (void)RunClosedLoop(port, body, 2, 0.5);

  // --- Closed loop: concurrency sweep. ---
  const std::size_t client_counts[] = {1, 2, 4, 8, 16, 32};
  constexpr double kClosedSeconds = 2.0;
  std::vector<LegResult> closed;
  double saturation_qps = 0.0;
  std::size_t saturation_clients = 0;
  for (const std::size_t clients : client_counts) {
    const LegResult leg = RunClosedLoop(port, body, clients, kClosedSeconds);
    closed.push_back(leg);
    std::printf("closed loop  clients=%-3zu qps=%-8.1f p50=%6.2fms "
                "p95=%7.2fms  (%zu ok, %zu shed, %zu err)\n",
                clients, leg.qps(), leg.p50_ms, leg.p95_ms, leg.completed,
                leg.shed, leg.errors);
    if (leg.qps() > saturation_qps) {
      saturation_qps = leg.qps();
      saturation_clients = clients;
    }
  }
  std::printf("saturation: %.1f qps at %zu clients\n\n", saturation_qps,
              saturation_clients);

  // --- Open loop: offered rates bracketing saturation. ---
  const double fractions[] = {0.5, 0.8, 1.1};
  constexpr double kOpenSeconds = 2.0;
  std::vector<std::pair<double, LegResult>> open;
  for (const double fraction : fractions) {
    const double offered = std::max(1.0, saturation_qps * fraction);
    const LegResult leg = RunOpenLoop(port, body, offered, kOpenSeconds);
    open.emplace_back(offered, leg);
    std::printf("open loop    offered=%-7.1f achieved=%-7.1f p50=%6.2fms "
                "p95=%7.2fms  (%zu ok, %zu shed, %zu err)\n",
                offered, leg.qps(), leg.p50_ms, leg.p95_ms, leg.completed,
                leg.shed, leg.errors);
  }
  std::printf("\n");

  // --- Observability overhead: metrics off vs on, fixed concurrency. ---
  obs::SetEnabled(false);
  const LegResult obs_off = RunClosedLoop(port, body, 4, kClosedSeconds);
  obs::SetEnabled(true);
  const LegResult obs_on = RunClosedLoop(port, body, 4, kClosedSeconds);
  const double obs_pct = obs_off.qps() > 0.0
                             ? (obs_off.qps() / obs_on.qps() - 1.0) * 100.0
                             : 0.0;
  std::printf("obs overhead (clients=4)     off=%.1f qps on=%.1f qps "
              "(%+.2f%%, budget <=2%%)\n",
              obs_off.qps(), obs_on.qps(), obs_pct);

  service.Stop();
  exporter.Stop();

  // --- JSON. ---
  std::string json = "{\"hardware_threads\": " + std::to_string(hardware) +
                     ", \"model\": \"" + kMethod + "\", \"history_points\": " +
                     std::to_string(kHistoryPoints) +
                     ", \"horizon\": " + std::to_string(kHorizon) + ",\n" +
                     " \"closed_loop\": [\n";
  char line[256];
  for (std::size_t i = 0; i < closed.size(); ++i) {
    std::snprintf(line, sizeof line,
                  "  {\"clients\": %zu, \"requests\": %zu, \"qps\": %.1f, "
                  "\"p50_ms\": %.2f, \"p95_ms\": %.2f}%s\n",
                  client_counts[i], closed[i].completed, closed[i].qps(),
                  closed[i].p50_ms, closed[i].p95_ms,
                  i + 1 < closed.size() ? "," : "");
    json += line;
  }
  std::snprintf(line, sizeof line,
                " ],\n \"saturation\": {\"clients\": %zu, \"qps\": %.1f},\n"
                " \"open_loop\": [\n",
                saturation_clients, saturation_qps);
  json += line;
  for (std::size_t i = 0; i < open.size(); ++i) {
    std::snprintf(line, sizeof line,
                  "  {\"offered_qps\": %.1f, \"achieved_qps\": %.1f, "
                  "\"completed\": %zu, \"shed\": %zu, \"p50_ms\": %.2f, "
                  "\"p95_ms\": %.2f}%s\n",
                  open[i].first, open[i].second.qps(),
                  open[i].second.completed, open[i].second.shed,
                  open[i].second.p50_ms, open[i].second.p95_ms,
                  i + 1 < open.size() ? "," : "");
    json += line;
  }
  std::snprintf(line, sizeof line,
                " ],\n \"obs\": {\"off_qps\": %.1f, \"on_qps\": %.1f, "
                "\"overhead_pct\": %.2f}}\n",
                obs_off.qps(), obs_on.qps(), obs_pct);
  json += line;

  std::FILE* out = std::fopen("BENCH_serving.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serving.json\n");
    return 1;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("\nwrote BENCH_serving.json\n");
  return 0;
}
