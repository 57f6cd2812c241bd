#include "tfb/serve/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>
#include <utility>

#include "tfb/base/json.h"
#include "tfb/obs/metrics.h"
#include "tfb/obs/progress.h"
#include "tfb/parallel/thread_pool.h"

namespace tfb::serve {

namespace {

using Clock = std::chrono::steady_clock;

const std::vector<double>& BatchSizeBounds() {
  static const std::vector<double> bounds = {1,  2,  3,  4,  6,  8,
                                             12, 16, 24, 32, 48, 64};
  return bounds;
}

obs::HttpResponse JsonResponse(int code, std::string body) {
  obs::HttpResponse resp;
  resp.code = code;
  resp.content_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

obs::HttpResponse ErrorResponse(int code, const std::string& message) {
  std::string body = "{\"error\":";
  base::AppendJsonString(&body, message);
  body += "}\n";
  return JsonResponse(code, std::move(body));
}

void CountRequest(int code) {
  if (!obs::Enabled()) return;
  obs::DefaultRegistry()
      .GetCounter("tfb_serve_requests_total{code=\"" + std::to_string(code) +
                  "\"}")
      .Increment();
}

/// Converts the "history" JSON member into a T x N series. Accepts a flat
/// number array (univariate) or an array of equal-length number rows.
base::Status ParseHistory(const base::JsonValue& history,
                          std::size_t max_points, ts::TimeSeries* out) {
  if (!history.is_array() || history.array.empty()) {
    return base::Status::InvalidInput(
        "\"history\" must be a non-empty array");
  }
  const bool nested = history.array.front().is_array();
  const std::size_t rows = history.array.size();
  const std::size_t cols =
      nested ? history.array.front().array.size() : std::size_t{1};
  if (cols == 0) {
    return base::Status::InvalidInput("\"history\" rows must be non-empty");
  }
  if (rows * cols > max_points) {
    return base::Status::InvalidInput(
        "\"history\" holds " + std::to_string(rows * cols) +
        " points, over the per-request limit of " + std::to_string(max_points));
  }
  linalg::Matrix values(rows, cols);
  for (std::size_t t = 0; t < rows; ++t) {
    const base::JsonValue& row = history.array[t];
    if (nested) {
      if (!row.is_array() || row.array.size() != cols) {
        return base::Status::InvalidInput(
            "\"history\" row " + std::to_string(t) +
            " is not an array of " + std::to_string(cols) + " numbers");
      }
      for (std::size_t v = 0; v < cols; ++v) {
        if (!row.array[v].is_number()) {
          return base::Status::InvalidInput(
              "\"history\" row " + std::to_string(t) + " holds a non-number");
        }
        values(t, v) = row.array[v].number;
      }
    } else {
      if (!row.is_number()) {
        return base::Status::InvalidInput(
            "\"history\" entry " + std::to_string(t) + " is not a number");
      }
      values(t, 0) = row.number;
    }
  }
  *out = ts::TimeSeries(std::move(values));
  return base::Status::Ok();
}

/// Stage bounds are finer than the end-to-end latency bounds: queue/linger
/// stages are often tens of microseconds.
const std::vector<double>& StageBounds() {
  static const std::vector<double> bounds = obs::ExponentialBounds(1e-5, 2.0, 20);
  return bounds;
}

std::string GenerateRequestId() {
  // Unique within the process and unlikely to collide across restarts:
  // a per-process epoch stamp plus a monotonic counter.
  static const std::uint64_t epoch = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  static std::atomic<std::uint64_t> counter{0};
  char buf[48];
  std::snprintf(buf, sizeof(buf), "req-%08llx-%llu",
                static_cast<unsigned long long>(epoch & 0xffffffffu),
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed) + 1));
  return buf;
}

}  // namespace

/// Per-request stage breakdown, all in seconds. Stages tile the request's
/// life inside the service: admission-queue wait, batch-linger window,
/// model-lease acquisition, forecast compute + render. Their sum tracks
/// the end-to-end latency (modulo scheduling gaps between stages).
struct ForecastService::StageTimes {
  double queue = 0.0;
  double linger = 0.0;
  double lease = 0.0;
  double forecast = 0.0;
};

struct ForecastService::PendingRequest {
  std::string model;
  std::size_t horizon = 0;  ///< 0 = model default.
  ts::TimeSeries history;
  obs::HttpResponder respond;
  std::string request_id;
  Clock::time_point enqueued;
  StageTimes stages;
};

ForecastService::ForecastService(ModelRegistry* registry,
                                 ForecastServiceOptions options)
    : registry_(registry), options_(std::move(options)) {}

ForecastService::~ForecastService() { Stop(); }

void ForecastService::Start() {
  std::size_t threads = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_) return;
    running_ = true;
    accepting_ = true;
    threads = std::max<std::size_t>(options_.dispatch_threads, 1);
  }
  if (!options_.access_log_path.empty()) {
    std::lock_guard<std::mutex> lock(access_log_mutex_);
    if (access_log_ == nullptr) {
      access_log_ = std::fopen(options_.access_log_path.c_str(), "a");
    }
  }
  for (std::size_t i = 0; i < threads; ++i) {
    dispatchers_.emplace_back([this] { DispatchLoop(); });
  }
}

void ForecastService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_ && dispatchers_.empty()) return;
    accepting_ = false;
  }
  // Drain: queued requests already got a 202-class promise (they were
  // admitted), so let the dispatchers finish them before shutdown.
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_ = false;
  }
  work_cv_.notify_all();
  for (std::thread& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  dispatchers_.clear();
  {
    std::lock_guard<std::mutex> lock(access_log_mutex_);
    if (access_log_ != nullptr) {
      std::fclose(access_log_);
      access_log_ = nullptr;
    }
  }
}

void ForecastService::InstallRoutes(obs::HttpExporter* exporter) {
  exporter->AddRoute("POST", "/forecast",
                     [this](const obs::HttpRequest& request,
                            obs::HttpResponder respond) {
                       HandleForecast(request, std::move(respond));
                     });
  exporter->AddRoute("GET", "/models",
                     [this](const obs::HttpRequest& request,
                            obs::HttpResponder respond) {
                       HandleModels(request, std::move(respond));
                     });
}

void ForecastService::HandleForecast(const obs::HttpRequest& request,
                                     obs::HttpResponder respond) {
  const std::string* id = obs::FindHeader(request, "X-Request-Id");
  Submit(request.body, std::move(respond), id != nullptr ? *id : std::string());
}

void ForecastService::HandleModels(const obs::HttpRequest&,
                                   obs::HttpResponder respond) {
  std::string body = "{\"capacity\":";
  body += std::to_string(registry_->capacity());
  body += ",\"loaded\":";
  body += std::to_string(registry_->loaded_count());
  body += ",\"models\":[";
  bool first = true;
  for (const std::string& key : registry_->Keys()) {
    if (!first) body += ',';
    first = false;
    base::AppendJsonString(&body, key);
  }
  body += "]}\n";
  respond(JsonResponse(200, std::move(body)));
}

void ForecastService::Submit(const std::string& body,
                             obs::HttpResponder respond,
                             std::string request_id) {
  if (request_id.empty()) request_id = GenerateRequestId();
  const Clock::time_point arrival = Clock::now();
  // Every answer — success, shed, or parse error — echoes the request id,
  // so a client (or a support thread reading its logs) can correlate any
  // response with the matching access-log line.
  respond = [inner = std::move(respond),
             request_id](obs::HttpResponse resp) {
    resp.headers.emplace_back("X-Request-Id", request_id);
    inner(std::move(resp));
  };
  // Short-circuit paths never reach ExecuteBatch; log them here.
  const auto answer_early = [&](obs::HttpResponse resp, int code) {
    LogAccess(request_id, "", code, StageTimes{},
              std::chrono::duration<double>(Clock::now() - arrival).count());
    respond(std::move(resp));
  };

  // Gate 1: the machine's coarse-parallelism budget. A benchmark grid (or
  // our own dispatcher crew) holding reservations means forecast work would
  // oversubscribe the box — shed early, before parsing.
  if (options_.max_reserved_workers > 0 &&
      parallel::ReservedCoarseWorkers() >= options_.max_reserved_workers) {
    obs::HttpResponse resp =
        ErrorResponse(429, "compute budget exhausted; retry shortly");
    resp.headers.emplace_back("Retry-After",
                              std::to_string(options_.retry_after_seconds));
    if (obs::Enabled()) {
      obs::DefaultRegistry()
          .GetCounter("tfb_serve_shed_total{reason=\"reservation\"}")
          .Increment();
    }
    CountRequest(429);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.shed;
      PublishStatsLocked();
    }
    answer_early(std::move(resp), 429);
    return;
  }

  base::JsonValue doc;
  if (const base::Status status = base::ParseJson(body, &doc); !status.ok()) {
    CountRequest(400);
    answer_early(ErrorResponse(400, status.message()), 400);
    return;
  }
  const base::JsonValue* model = doc.Find("model");
  if (model == nullptr || !model->is_string() || model->string.empty()) {
    CountRequest(400);
    answer_early(ErrorResponse(400, "\"model\" (string) is required"), 400);
    return;
  }
  std::size_t horizon = 0;
  if (const base::JsonValue* h = doc.Find("horizon"); h != nullptr) {
    if (!h->is_number() || h->number < 1 ||
        h->number != std::floor(h->number)) {
      CountRequest(400);
      answer_early(
          ErrorResponse(400, "\"horizon\" must be a positive integer"), 400);
      return;
    }
    if (h->number > static_cast<double>(options_.max_horizon)) {
      CountRequest(400);
      answer_early(ErrorResponse(
                       400, "\"horizon\" exceeds the limit of " +
                                std::to_string(options_.max_horizon)),
                   400);
      return;
    }
    horizon = static_cast<std::size_t>(h->number);
  }
  const base::JsonValue* history = doc.Find("history");
  if (history == nullptr) {
    CountRequest(400);
    answer_early(ErrorResponse(400, "\"history\" (array) is required"), 400);
    return;
  }
  PendingRequest pending;
  if (const base::Status status =
          ParseHistory(*history, options_.max_history_points,
                       &pending.history);
      !status.ok()) {
    CountRequest(400);
    answer_early(ErrorResponse(400, status.message()), 400);
    return;
  }
  pending.model = model->string;
  pending.horizon = horizon;
  pending.respond = std::move(respond);
  pending.request_id = request_id;
  pending.enqueued = arrival;

  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) {
      CountRequest(503);
      LogAccess(request_id, pending.model, 503, StageTimes{},
                std::chrono::duration<double>(Clock::now() - arrival).count());
      pending.respond(ErrorResponse(503, "service is shutting down"));
      return;
    }
    // Gate 2: the admission queue itself.
    if (queue_.size() >= options_.max_queue) {
      ++stats_.shed;
      PublishStatsLocked();
      obs::HttpResponse resp =
          ErrorResponse(429, "forecast queue is full; retry shortly");
      resp.headers.emplace_back(
          "Retry-After", std::to_string(options_.retry_after_seconds));
      if (obs::Enabled()) {
        obs::DefaultRegistry()
            .GetCounter("tfb_serve_shed_total{reason=\"queue\"}")
            .Increment();
      }
      CountRequest(429);
      LogAccess(request_id, pending.model, 429, StageTimes{},
                std::chrono::duration<double>(Clock::now() - arrival).count());
      pending.respond(std::move(resp));
      return;
    }
    queue_.push_back(std::move(pending));
    ++stats_.admitted;
    depth = queue_.size();
    stats_.queue_depth = depth;
    PublishStatsLocked();
  }
  if (obs::Enabled()) {
    obs::DefaultRegistry()
        .GetGauge("tfb_serve_queue_depth")
        .Set(static_cast<double>(depth));
  }
  work_cv_.notify_one();
}

void ForecastService::DispatchLoop() {
  while (true) {
    std::vector<PendingRequest> batch;
    std::size_t depth_after = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return !queue_.empty() || !running_; });
      if (queue_.empty()) {
        if (!running_) return;
        continue;
      }
      // Linger briefly so a burst of concurrent arrivals coalesces into one
      // batch instead of N singleton dispatches.
      const Clock::time_point wake = Clock::now();
      if (options_.batch_linger_ms > 0 && queue_.size() < options_.max_batch) {
        work_cv_.wait_for(
            lock, std::chrono::milliseconds(options_.batch_linger_ms),
            [this] { return queue_.size() >= options_.max_batch || !running_; });
      }
      const Clock::time_point taken = Clock::now();
      const std::size_t take =
          std::min(queue_.size(), std::max<std::size_t>(options_.max_batch, 1));
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        PendingRequest item = std::move(queue_.front());
        queue_.pop_front();
        // Stage split: time before this dispatcher woke is queue wait; time
        // spent holding the batch open afterwards is linger. An item that
        // arrived mid-linger waited in neither — only its tail counts.
        const Clock::time_point linger_from =
            item.enqueued > wake ? item.enqueued : wake;
        item.stages.queue =
            item.enqueued < wake
                ? std::chrono::duration<double>(wake - item.enqueued).count()
                : 0.0;
        item.stages.linger =
            std::chrono::duration<double>(taken - linger_from).count();
        batch.push_back(std::move(item));
      }
      ++stats_.batches;
      stats_.max_batch_seen = std::max(stats_.max_batch_seen, batch.size());
      stats_.queue_depth = queue_.size();
      depth_after = queue_.size();
      PublishStatsLocked();
    }
    if (obs::Enabled()) {
      obs::Registry& registry = obs::DefaultRegistry();
      registry.GetGauge("tfb_serve_queue_depth")
          .Set(static_cast<double>(depth_after));
      registry.GetHistogram("tfb_serve_batch_size", BatchSizeBounds())
          .Observe(static_cast<double>(batch.size()));
    }
    // One coarse worker per in-flight batch: kernel-level ParallelFor
    // inside Forecast divides the machine by the reservation count, so
    // dispatcher crews and benchmark grids share one concurrency budget.
    parallel::CoarseReservation reservation(1);
    ExecuteBatch(&batch);
  }
}

void ForecastService::ExecuteBatch(std::vector<PendingRequest>* batch) {
  // Group by model: one lease per model per batch, so a batch of requests
  // against one hot model pays the registry lookup/lock once.
  std::map<std::string, std::vector<std::size_t>> by_model;
  for (std::size_t i = 0; i < batch->size(); ++i) {
    by_model[(*batch)[i].model].push_back(i);
  }
  for (auto& [model, indices] : by_model) {
    ModelRegistry::Lease lease;
    const Clock::time_point lease_begin = Clock::now();
    const base::Status acquired = registry_->Acquire(model, &lease);
    const double lease_seconds =
        std::chrono::duration<double>(Clock::now() - lease_begin).count();
    for (const std::size_t i : indices) {
      PendingRequest& item = (*batch)[i];
      item.stages.lease = lease_seconds;
      const Clock::time_point forecast_begin = Clock::now();
      int code = 200;
      obs::HttpResponse resp;
      if (!acquired.ok()) {
        code = acquired.code() == base::StatusCode::kInvalidInput ? 404 : 500;
        resp = ErrorResponse(code, acquired.message());
      } else {
        methods::Forecaster* forecaster = lease.forecaster();
        const std::size_t horizon =
            item.horizon != 0 ? item.horizon : lease.params().horizon;
        const std::size_t lookback = forecaster->lookback();
        const std::size_t channels = forecaster->fitted_channels();
        if (channels != 0 && item.history.num_variables() != channels) {
          code = 400;
          resp = ErrorResponse(
              400, "model " + lease.key() + " was fitted on " +
                       std::to_string(channels) +
                       " channels but \"history\" has " +
                       std::to_string(item.history.num_variables()));
        } else if (lookback != 0 && item.history.length() < lookback) {
          code = 400;
          resp = ErrorResponse(
              400, "model " + lease.key() + " needs at least " +
                       std::to_string(lookback) +
                       " history points, got " +
                       std::to_string(item.history.length()));
        } else {
          const ts::TimeSeries forecast =
              forecaster->Forecast(item.history, horizon);
          std::string body = "{\"model\":";
          base::AppendJsonString(&body, lease.key());
          body += ",\"method\":";
          base::AppendJsonString(&body, lease.method());
          body += ",\"horizon\":";
          body += std::to_string(horizon);
          body += ",\"forecast\":[";
          for (std::size_t t = 0; t < forecast.length(); ++t) {
            if (t != 0) body += ',';
            body += '[';
            for (std::size_t v = 0; v < forecast.num_variables(); ++v) {
              if (v != 0) body += ',';
              base::AppendJsonDouble(&body, forecast.at(t, v));
            }
            body += ']';
          }
          body += "]}\n";
          resp = JsonResponse(200, std::move(body));
        }
      }
      const Clock::time_point done = Clock::now();
      item.stages.forecast =
          std::chrono::duration<double>(done - forecast_begin).count();
      const double total_seconds =
          std::chrono::duration<double>(done - item.enqueued).count();
      CountRequest(code);
      if (obs::Enabled()) {
        obs::Registry& registry = obs::DefaultRegistry();
        registry
            .GetHistogram("tfb_serve_latency_seconds",
                          obs::ExponentialBounds(1e-4, 2.0, 18))
            .Observe(total_seconds);
        const auto observe_stage = [&](const char* stage, double seconds) {
          registry
              .GetHistogram(std::string("tfb_serve_stage_seconds{stage=\"") +
                                stage + "\"}",
                            StageBounds())
              .Observe(seconds);
        };
        observe_stage("queue", item.stages.queue);
        observe_stage("linger", item.stages.linger);
        observe_stage("lease", item.stages.lease);
        observe_stage("forecast", item.stages.forecast);
      }
      // Server-Timing (RFC 8673 syntax, durations in milliseconds): the
      // stage breakdown any HTTP client can read without scraping /metrics.
      {
        char timing[160];
        std::snprintf(timing, sizeof(timing),
                      "queue;dur=%.3f, linger;dur=%.3f, lease;dur=%.3f, "
                      "forecast;dur=%.3f, total;dur=%.3f",
                      item.stages.queue * 1e3, item.stages.linger * 1e3,
                      item.stages.lease * 1e3, item.stages.forecast * 1e3,
                      total_seconds * 1e3);
        resp.headers.emplace_back("Server-Timing", timing);
      }
      LogAccess(item.request_id, item.model, code, item.stages,
                total_seconds);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.completed;
        if (code != 200) ++stats_.failed;
        PublishStatsLocked();
      }
      item.respond(std::move(resp));
    }
  }
}

void ForecastService::LogAccess(const std::string& request_id,
                                const std::string& model, int code,
                                const StageTimes& stages,
                                double total_seconds) {
  std::lock_guard<std::mutex> lock(access_log_mutex_);
  if (access_log_ == nullptr) return;
  // One wide event per answered request: everything needed to understand
  // this request without joining other logs.
  std::string line = "{\"ts\":";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f",
                std::chrono::duration<double>(
                    std::chrono::system_clock::now().time_since_epoch())
                    .count());
  line += buf;
  line += ",\"request_id\":";
  base::AppendJsonString(&line, request_id);
  line += ",\"model\":";
  base::AppendJsonString(&line, model);
  line += ",\"code\":";
  line += std::to_string(code);
  const auto stage = [&](const char* key, double seconds) {
    line += ",\"";
    line += key;
    line += "\":";
    std::snprintf(buf, sizeof(buf), "%.6f", seconds);
    line += buf;
  };
  stage("queue_s", stages.queue);
  stage("linger_s", stages.linger);
  stage("lease_s", stages.lease);
  stage("forecast_s", stages.forecast);
  stage("total_s", total_seconds);
  line += "}\n";
  std::fwrite(line.data(), 1, line.size(), access_log_);
  std::fflush(access_log_);
}

void ForecastService::PublishStatsLocked() {
  obs::ServeStats stats;
  stats.enabled = true;
  stats.models_registered = registry_ != nullptr ? registry_->Keys().size() : 0;
  stats.models_loaded = registry_ != nullptr ? registry_->loaded_count() : 0;
  stats.admitted = stats_.admitted;
  stats.completed = stats_.completed;
  stats.failed = stats_.failed;
  stats.shed = stats_.shed;
  stats.batches = stats_.batches;
  stats.max_batch = stats_.max_batch_seen;
  stats.queue_depth = stats_.queue_depth;
  if (obs::Enabled() && stats_.completed > 0) {
    const obs::Histogram& latency = obs::DefaultRegistry().GetHistogram(
        "tfb_serve_latency_seconds", obs::ExponentialBounds(1e-4, 2.0, 18));
    if (latency.Count() > 0) {
      stats.latency_p50 = latency.Quantile(0.5);
      stats.latency_p95 = latency.Quantile(0.95);
      stats.latency_p99 = latency.Quantile(0.99);
    }
  }
  obs::DefaultProgressTracker().SetServeStats(stats);
}

ForecastServiceStats ForecastService::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace tfb::serve
