// The serve workload: POST /forecast over loopback HTTP against a
// ForecastService with default options, the only workload that exercises
// the HTTP, admission/batching, registry and model_store layers.
//
// Set-up fits five models spanning the statistical, ML and DL families on
// univariate and multivariate histories, saves each as TFBM, registers the
// files with a registry one slot smaller than the model set, and renders
// the offline Forecast() body every request must match byte for byte.
// Phase 1 is an open loop at a fixed offered rate below saturation, latency
// timed from each request's due time; phase 2 is a closed loop of nproc
// connections issuing back-to-back requests. All load comes from this
// process, with at most nproc client threads.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <strings.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "bench_common.h"
#include "tfb/tfb.h"

namespace tfbbench {
namespace {

struct ModelSpec {
  const char* key;
  const char* method;
  bool multivariate;
};

// The first kHot models are the hot set, the rest are cold (see
// ScheduleOptions). Capacity is one below the model count, so each cold
// request evicts and later reloads a model.
constexpr ModelSpec kModels[] = {
    {"theta@1", "Theta", false},
    {"dlinear-mv@1", "DLinear", true},
    {"linreg@1", "LinearRegression", false},
    {"nbeats@1", "N-BEATS", false},
    {"forest-mv@1", "RandomForest", true},
};
constexpr std::size_t kNumModels = std::size(kModels);
constexpr std::size_t kHot = 3;
constexpr std::size_t kCapacity = kNumModels - 1;
const std::vector<double> kHotWeights = {0.5, 0.3, 0.2};
constexpr std::size_t kColdEvery = 25;
constexpr std::size_t kVariants = 4;
constexpr std::size_t kHorizon = 24;
constexpr std::size_t kHistory = 168;
constexpr double kOfferedQps = 400.0;
constexpr int kSetups = 5;
/// The open loop is reported per slice of its schedule, and latency
/// percentiles and CPU are medians over the slices, so one burst of
/// interference from outside moves one slice, not the figure.
constexpr std::size_t kSlices = 5;

// ---- Minimal HTTP/1.0 client with a connect/exchange split -------------------

struct Reply {
  bool ok = false;  ///< Transport-level success (a status line arrived).
  int code = 0;
  std::string body;
  std::string server_timing;
  double connect_ms = 0.0;
  double exchange_ms = 0.0;
};

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

bool SendAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void ParseReply(const std::string& raw, Reply* reply) {
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 5, "HTTP/") != 0 || head_end == std::string::npos) {
    return;
  }
  const std::size_t space = raw.find(' ');
  reply->code = std::atoi(raw.c_str() + space + 1);
  reply->body = raw.substr(head_end + 4);
  std::size_t at = raw.find("\r\n") + 2;
  while (at < head_end) {
    const std::size_t eol = raw.find("\r\n", at);
    const std::size_t colon = raw.find(':', at);
    if (colon != std::string::npos && colon < eol &&
        strncasecmp(raw.c_str() + at, "Server-Timing", colon - at) == 0 &&
        colon - at == std::strlen("Server-Timing")) {
      reply->server_timing = raw.substr(colon + 1, eol - colon - 1);
    }
    at = eol + 2;
  }
  reply->ok = reply->code > 0;
}

/// One POST over a fresh connection (the exporter closes after each
/// response). With `traced`, the connect and the exchange get spans.
Reply Post(std::uint16_t port, const std::string& request, bool traced) {
  using Clock = std::chrono::steady_clock;
  Reply reply;
  const Clock::time_point t0 = Clock::now();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return reply;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool connected = false;
  {
    std::optional<tfb::obs::ScopedSpan> span;
    if (traced) span.emplace("http.connect", "bench");
    connected =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  const Clock::time_point t1 = Clock::now();
  reply.connect_ms = MsBetween(t0, t1);
  if (connected) {
    std::optional<tfb::obs::ScopedSpan> span;
    if (traced) span.emplace("http.exchange", "bench");
    std::string raw;
    if (SendAll(fd, request)) {
      char buf[16384];
      while (true) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        raw.append(buf, static_cast<std::size_t>(n));
      }
    }
    ParseReply(raw, &reply);
  }
  ::close(fd);
  reply.exchange_ms = MsBetween(t1, Clock::now());
  return reply;
}

// ---- Set-up -----------------------------------------------------------------

std::string RenderBody(const std::string& key, const std::string& method,
                       const tfb::ts::TimeSeries& forecast) {
  // The rendering of serve::ForecastService::ExecuteBatch.
  std::string body = "{\"model\":";
  tfb::serve::AppendJsonString(&body, key);
  body += ",\"method\":";
  tfb::serve::AppendJsonString(&body, method);
  body += ",\"horizon\":" + std::to_string(forecast.length()) +
          ",\"forecast\":[";
  for (std::size_t t = 0; t < forecast.length(); ++t) {
    if (t != 0) body += ',';
    body += '[';
    for (std::size_t v = 0; v < forecast.num_variables(); ++v) {
      if (v != 0) body += ',';
      tfb::serve::AppendJsonDouble(&body, forecast.at(t, v));
    }
    body += ']';
  }
  return body + "]}\n";
}

std::string RenderRequest(const std::string& key,
                          const tfb::ts::TimeSeries& history) {
  std::string body = "{\"model\":";
  tfb::serve::AppendJsonString(&body, key);
  body += ",\"horizon\":" + std::to_string(kHorizon) + ",\"history\":[";
  for (std::size_t t = 0; t < history.length(); ++t) {
    if (t != 0) body += ',';
    if (history.num_variables() > 1) body += '[';
    for (std::size_t v = 0; v < history.num_variables(); ++v) {
      if (v != 0) body += ',';
      tfb::serve::AppendJsonDouble(&body, history.at(t, v));
    }
    if (history.num_variables() > 1) body += ']';
  }
  body += "]}";
  return "POST /forecast HTTP/1.0\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

tfb::ts::TimeSeries Channel0(const tfb::ts::TimeSeries& s) {
  tfb::ts::TimeSeries out = tfb::ts::TimeSeries::Univariate(s.Column(0));
  out.set_seasonal_period(s.seasonal_period());
  out.set_frequency(s.frequency());
  return out;
}

/// A running server plus, per (model, variant), the raw request and the
/// body the offline Forecast() renders for it.
struct Fixture {
  std::vector<std::vector<std::string>> requests;
  std::vector<std::vector<std::string>> expected;
  std::vector<double> load_ms;  ///< Benchmark-timed LoadModelFile calls.
  double datagen_s = 0.0;
  std::unique_ptr<tfb::serve::ModelRegistry> registry;
  std::unique_ptr<tfb::serve::ForecastService> service;
  std::unique_ptr<tfb::obs::HttpExporter> exporter;

  void Stop() {
    if (exporter) exporter->Stop();
    if (service) service->Stop();
  }
};

std::unique_ptr<Fixture> SetUp(const RunOptions& options, int index,
                               RunResult* result) {
  auto fx = std::make_unique<Fixture>();
  const std::string dir =
      options.workdir + "/serve-models-" + std::to_string(index);
  ::mkdir(dir.c_str(), 0755);

  tfb::ts::TimeSeries data;
  {
    const double t0 = NowSeconds();
    const tfb::obs::ScopedSpan span("bench.datagen", "bench");
    data = tfb::datagen::GenerateDataset(
        tfb::bench::ScaledProfile("ETTh2", 480, 3), options.seed);
    fx->datagen_s = NowSeconds() - t0;
  }
  const tfb::ts::TimeSeries train = data.Slice(0, 320);
  fx->registry = std::make_unique<tfb::serve::ModelRegistry>(kCapacity);
  for (const ModelSpec& m : kModels) {
    tfb::pipeline::MethodParams params;
    params.horizon = kHorizon;
    params.seed = options.seed;
    params.train_epochs = 8;
    const auto config = tfb::pipeline::MakeMethod(m.method, params);
    TFB_CHECK_MSG(config.has_value(), "unknown serve model method");
    auto forecaster = config->factory();
    forecaster->Fit(m.multivariate ? train : Channel0(train));
    const std::string path = dir + "/" + m.key + ".tfbm";
    TFB_CHECK(tfb::serve::SaveModelFile(*forecaster, m.method, params, path)
                  .ok());
    TFB_CHECK(fx->registry->AddFile(m.key, path).ok());

    // The offline reference: load the file as the registry will, then
    // forecast every history variant.
    tfb::serve::ModelArtifact artifact;
    {
      const tfb::obs::ScopedSpan span("bench.load_model", "bench");
      const double t0 = NowSeconds();
      TFB_CHECK(tfb::serve::LoadModelFile(path, &artifact).ok());
      fx->load_ms.push_back((NowSeconds() - t0) * 1e3);
    }
    std::vector<std::string> requests;
    std::vector<std::string> expected;
    for (std::size_t v = 0; v < kVariants; ++v) {
      const std::size_t begin = 200 + 30 * v;
      tfb::ts::TimeSeries history = data.Slice(begin, begin + kHistory);
      if (!m.multivariate) history = Channel0(history);
      requests.push_back(RenderRequest(m.key, history));
      expected.push_back(RenderBody(
          m.key, m.method, artifact.forecaster->Forecast(history, kHorizon)));
    }
    fx->requests.push_back(std::move(requests));
    fx->expected.push_back(std::move(expected));
  }

  fx->service = std::make_unique<tfb::serve::ForecastService>(
      fx->registry.get(), tfb::serve::ForecastServiceOptions{});
  fx->service->Start();
  tfb::obs::HttpExporterOptions http;
  http.run_id = "tfbbench";
  fx->exporter = std::make_unique<tfb::obs::HttpExporter>(http);
  fx->service->InstallRoutes(fx->exporter.get());
  TFB_CHECK(fx->exporter->Start().ok());

  // Warm-up: every (model, variant) once, cold models first so the hot set
  // ends resident.
  for (std::size_t k = kNumModels; k-- > 0;) {
    for (std::size_t v = 0; v < kVariants; ++v) {
      const Reply reply = Post(fx->exporter->port(), fx->requests[k][v], false);
      result->Check(reply.ok && reply.code == 200 &&
                        reply.body == fx->expected[k][v],
                    std::string("warm-up response differs from offline "
                                "Forecast() for ") +
                        kModels[k].key);
    }
  }
  return fx;
}

// ---- Load phases --------------------------------------------------------------

struct Sample {
  double latency_ms = 0.0;  ///< From the due time (open loop).
  double late_ms = 0.0;
  Reply reply;
};

struct PhaseTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;      ///< Non-200, 429 and transport errors.
  std::size_t mismatched = 0;  ///< 200s whose body differs from offline.
};

void Judge(const Fixture& fx, const ScheduledRequest& r, const Reply& reply,
           PhaseTally* tally) {
  ++tally->attempted;
  if (!reply.ok || reply.code != 200) {
    ++tally->failed;
  } else if (reply.body != fx.expected[r.model][r.variant]) {
    ++tally->mismatched;
  }
}

/// Open loop: a pool of nproc senders takes requests in schedule order and
/// sends each at its due time (late if every sender was busy). The phase
/// is cut into kSlices equal slices by due time; `slice_cpu` receives the
/// process CPU seconds spent in each.
std::vector<Sample> OpenLoop(const Fixture& fx,
                             const std::vector<ScheduledRequest>& schedule,
                             std::size_t senders, bool traced,
                             PhaseTally* tally, double* makespan_s,
                             std::vector<double>* slice_cpu) {
  using Clock = std::chrono::steady_clock;
  std::vector<Sample> samples(schedule.size());
  std::vector<PhaseTally> tallies(senders);
  std::atomic<std::size_t> next{0};
  const std::uint16_t port = fx.exporter->port();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < senders; ++t) {
    threads.emplace_back([&, t] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= schedule.size()) return;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[i].due_s));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        Sample& s = samples[i];
        s.reply = Post(port, fx.requests[schedule[i].model][schedule[i].variant],
                       traced);
        s.latency_ms = MsBetween(due, Clock::now());
        s.late_ms = MsBetween(due, sent);
        Judge(fx, schedule[i], s.reply, &tallies[t]);
      }
    });
  }
  const double phase_s = schedule.back().due_s;
  double cpu = CpuSeconds();
  for (std::size_t k = 1; k <= kSlices; ++k) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(phase_s * k / kSlices)));
    const double now = CpuSeconds();
    slice_cpu->push_back(now - cpu);
    cpu = now;
  }
  for (std::thread& t : threads) t.join();
  *makespan_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (const PhaseTally& t : tallies) {
    tally->attempted += t.attempted;
    tally->failed += t.failed;
    tally->mismatched += t.mismatched;
  }
  return samples;
}

/// Closed loop: `clients` connections back to back for `seconds`; returns
/// 200 responses per second.
double ClosedLoop(const Fixture& fx,
                  const std::vector<ScheduledRequest>& schedule,
                  std::size_t clients, double seconds, bool traced,
                  PhaseTally* tally) {
  std::vector<PhaseTally> tallies(clients);
  std::atomic<std::size_t> next{0};
  const std::uint16_t port = fx.exporter->port();
  const double start = NowSeconds();
  const double stop = start + seconds;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      while (NowSeconds() < stop) {
        const ScheduledRequest& r = schedule[next.fetch_add(1) % schedule.size()];
        const Reply reply = Post(port, fx.requests[r.model][r.variant], traced);
        Judge(fx, r, reply, &tallies[t]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = NowSeconds() - start;
  std::size_t ok = 0;
  for (const PhaseTally& t : tallies) {
    tally->attempted += t.attempted;
    tally->failed += t.failed;
    tally->mismatched += t.mismatched;
    ok += t.attempted - t.failed;
  }
  return static_cast<double>(ok) / elapsed;
}

}  // namespace

void RunServe(const RunOptions& options, RunResult* result) {
  TraceCollector trace;
  if (options.trace) trace.Begin();

  // Set-up, several times; the last fixture serves the load phases.
  std::vector<double> setup_s;
  std::vector<double> datagen_s;
  std::vector<double> load_ms;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < kSetups; ++i) {
    if (fx) fx->Stop();
    fx.reset();
    const double t0 = NowSeconds();
    fx = SetUp(options, i, result);
    setup_s.push_back(NowSeconds() - t0);
    datagen_s.push_back(fx->datagen_s);
    load_ms.insert(load_ms.end(), fx->load_ms.begin(), fx->load_ms.end());
  }

  ScheduleOptions so;
  so.seed = options.seed;
  so.rate_qps = kOfferedQps;
  so.requests = static_cast<std::size_t>(kOfferedQps * options.seconds * 0.5);
  so.hot_weights = kHotWeights;
  so.cold_models = kNumModels - kHot;
  so.cold_every = kColdEvery;
  so.variants = kVariants;
  const std::vector<ScheduledRequest> schedule = MakeSchedule(so);

  // Phase 1: open loop.
  PhaseTally tally;
  const std::uint64_t loads0 = fx->registry->loads();
  const std::uint64_t evictions0 = fx->registry->evictions();
  double makespan_s = 0.0;
  std::vector<double> slice_cpu;
  const std::vector<Sample> samples =
      OpenLoop(*fx, schedule, options.nproc, options.trace, &tally,
               &makespan_s, &slice_cpu);
  const std::uint64_t loads = fx->registry->loads() - loads0;
  const std::uint64_t evictions = fx->registry->evictions() - evictions0;

  // Phase 2: closed loop. Traced runs split it into an untraced and a
  // traced half for the overhead figure.
  const double closed_s = options.seconds * 0.4;
  const tfb::serve::ForecastServiceStats before = fx->service->Stats();
  double closed_qps = 0.0;
  double overhead_pct = 0.0;
  if (options.trace) {
    tfb::obs::SetEnabled(false);
    const double plain_qps = ClosedLoop(*fx, schedule, options.nproc,
                                        closed_s / 2, false, &tally);
    tfb::obs::SetEnabled(true);
    closed_qps = ClosedLoop(*fx, schedule, options.nproc, closed_s / 2, true,
                            &tally);
    overhead_pct = (plain_qps / closed_qps - 1.0) * 100.0;
  } else {
    closed_qps =
        ClosedLoop(*fx, schedule, options.nproc, closed_s, false, &tally);
  }
  const tfb::serve::ForecastServiceStats after = fx->service->Stats();
  fx->Stop();
  if (options.trace) trace.End();

  result->attempted = tally.attempted;
  result->failed = tally.failed + tally.mismatched;
  result->Check(tally.mismatched == 0,
                std::to_string(tally.mismatched) +
                    " served bodies differ from offline Forecast()");

  std::vector<double> latency;
  std::vector<std::vector<double>> slice_latency(kSlices);
  std::vector<double> late;
  std::vector<double> connect;
  std::vector<double> exchange;
  std::vector<double> other;
  std::vector<double> explained;
  std::map<std::string, std::vector<double>> stages;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (!s.reply.ok || s.reply.code != 200) continue;
    latency.push_back(s.latency_ms);
    slice_latency[i * kSlices / samples.size()].push_back(s.latency_ms);
    late.push_back(s.late_ms);
    connect.push_back(s.reply.connect_ms);
    exchange.push_back(s.reply.exchange_ms);
    const auto timing = ParseServerTiming(s.reply.server_timing);
    double staged = 0.0;
    for (const char* stage : {"queue", "linger", "lease", "forecast"}) {
      const auto it = timing.find(stage);
      const double ms = it != timing.end() ? it->second : 0.0;
      stages[stage].push_back(ms);
      staged += ms;
    }
    const double total = s.reply.connect_ms + s.reply.exchange_ms;
    other.push_back(s.reply.exchange_ms - staged);
    explained.push_back(total > 0.0 ? (total - (s.reply.exchange_ms - staged)) /
                                          total
                                    : 0.0);
  }

  // Per-slice figures; each slice holds at least 10 samples beyond its p99.
  std::vector<double> p50;
  std::vector<double> p99;
  for (const auto& slice : slice_latency) {
    p50.push_back(Percentile(slice, 0.50));
    p99.push_back(Percentile(slice, 0.99));
  }
  std::vector<double> cpu_per_1000;
  const double per_slice = static_cast<double>(schedule.size()) / kSlices;
  for (const double cpu : slice_cpu) {
    cpu_per_1000.push_back(cpu * 1000.0 / per_slice);
  }
  result->Median("setup_s", setup_s);
  result->Set("wall_s", makespan_s);
  result->Median("cpu_s", cpu_per_1000);
  result->Set("peak_rss_mb", PeakRssMb());
  result->Median("p50_ms", p50);
  result->Median("p99_ms", p99);
  result->Set("closed_qps", closed_qps);

  result->Set("failed_frac",
              tally.attempted > 0 ? static_cast<double>(result->failed) /
                                        static_cast<double>(tally.attempted)
                                  : 0.0);
  result->Median("datagen.s", datagen_s);
  result->Set("http.connect_ms_p50", Percentile(connect, 0.5), connect);
  result->Set("http.exchange_ms_p50", Percentile(exchange, 0.5), exchange);
  for (const auto& [stage, values] : stages) {
    result->Set("service." + stage + "_ms_p50", Percentile(values, 0.5),
                values);
  }
  result->Set("service.other_ms_p50", Percentile(other, 0.5), other);
  const double batches = static_cast<double>(after.batches - before.batches);
  result->Set("service.batch_size_mean",
              batches > 0.0
                  ? static_cast<double>(after.admitted - before.admitted) /
                        batches
                  : 0.0);
  result->Set("service.shed", static_cast<double>(after.shed));
  result->Set("registry.loads", static_cast<double>(loads));
  result->Set("registry.evictions", static_cast<double>(evictions));
  double load_total = 0.0;
  for (const double ms : load_ms) load_total += ms;
  result->Set("model_store.load_ms",
              load_total / static_cast<double>(load_ms.size()), load_ms);
  result->Set("loadgen.late_ms_p99", Percentile(late, 0.99), late);
  result->Set("loadgen.samples", static_cast<double>(latency.size()));
  result->Set("attribution.coverage", Percentile(explained, 0.5), explained);

  std::size_t cold = 0;
  for (const ScheduledRequest& r : schedule) cold += r.cold ? 1 : 0;
  result->notes["open_loop"] =
      std::to_string(schedule.size()) + " requests at " +
      std::to_string(static_cast<int>(kOfferedQps)) + " qps, " +
      std::to_string(cold) + " to cold models";
  result->notes["closed_loop"] = std::to_string(options.nproc) + " connections";
  result->notes["wall_s"] = "open-loop makespan (grows with a backlog)";
  result->notes["cpu_s"] = "process CPU per 1000 open-loop requests";
  result->notes["p50_ms/p99_ms"] =
      "latency from due time, median over " + std::to_string(kSlices) +
      " slices of " + std::to_string(latency.size()) + " samples";
  if (options.trace) {
    result->Check(trace.dropped() == 0,
                  "tracer ring dropped " + std::to_string(trace.dropped()) +
                      " events");
    result->Set("obs.trace_dropped", static_cast<double>(trace.dropped()));
    result->Set("obs.trace_overhead_pct", overhead_pct);
  }
}

}  // namespace tfbbench
