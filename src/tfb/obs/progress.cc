#include "tfb/obs/progress.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>

#include "tfb/base/json.h"
#include "tfb/obs/log.h"

namespace tfb::obs {

namespace {

// EWMA smoothing factor for completion gaps and task durations: heavy
// enough that the ETA settles within ~10 completions, light enough that a
// single outlier task does not whipsaw it.
constexpr double kEwmaAlpha = 0.3;

// Bar refresh rate limit; renders triggered faster than this are dropped.
constexpr auto kBarRefresh = std::chrono::milliseconds(100);
// Plain-mode heartbeat spacing.
constexpr auto kHeartbeat = std::chrono::seconds(2);

constexpr int kBarWidth = 30;

std::string Humanize(double seconds) {
  char buf[32];
  if (seconds < 0.0) return "?";
  if (seconds < 60.0) {
    std::snprintf(buf, sizeof(buf), "%.0fs", seconds);
  } else if (seconds < 3600.0) {
    std::snprintf(buf, sizeof(buf), "%.0fm%02.0fs", std::floor(seconds / 60.0),
                  std::fmod(seconds, 60.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fh%02.0fm",
                  std::floor(seconds / 3600.0),
                  std::fmod(seconds, 3600.0) / 60.0);
  }
  return buf;
}

void AppendJsonNumber(std::string* out, double value) {
  char buf[48];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.6g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  *out += buf;
}

}  // namespace

std::optional<ProgressMode> ParseProgressMode(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (const char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "off" || lower == "none") return ProgressMode::kOff;
  if (lower == "auto") return ProgressMode::kAuto;
  if (lower == "bar") return ProgressMode::kBar;
  if (lower == "plain") return ProgressMode::kPlain;
  return std::nullopt;
}

const char* ProgressModeName(ProgressMode mode) {
  switch (mode) {
    case ProgressMode::kOff: return "off";
    case ProgressMode::kAuto: return "auto";
    case ProgressMode::kBar: return "bar";
    case ProgressMode::kPlain: return "plain";
  }
  return "?";
}

void ProgressTracker::SetDisplay(ProgressMode mode, std::FILE* stream) {
  const std::lock_guard<std::mutex> lock(mutex_);
  requested_mode_ = mode;
  stream_ = stream;
}

void ProgressTracker::BeginRun(std::size_t total, std::size_t resumed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  active_ = true;
  total_ = total;
  resumed_ = std::min(resumed, total);
  completed_ = failed_ = fallback_ = in_flight_ = 0;
  ewma_gap_seconds_ = ewma_task_seconds_ = 0.0;
  final_elapsed_seconds_ = 0.0;
  by_method_.clear();
  run_start_ = Clock::now();
  last_finish_ = run_start_;
  last_render_ = run_start_ - kHeartbeat;  // First render fires immediately.

  mode_ = requested_mode_;
  if (mode_ == ProgressMode::kAuto) {
    mode_ = (stream_ != nullptr && isatty(fileno(stream_)) != 0)
                ? ProgressMode::kBar
                : ProgressMode::kPlain;
  }
  if (mode_ == ProgressMode::kBar && stream_ == nullptr) {
    mode_ = ProgressMode::kPlain;
  }
  if (mode_ == ProgressMode::kBar) {
    // Let log lines erase the bar before printing, so the two can share
    // the terminal. The hook runs under the logger's sink lock and only
    // touches the atomic flag + the stream — never mutex_.
    DefaultLogger().SetPreTextHook([this] {
      if (bar_visible_.exchange(false, std::memory_order_acq_rel)) {
        std::fputs("\r\033[K", stream_);
      }
    });
  }
  RenderLocked();
}

void ProgressTracker::TaskStarted() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++in_flight_;
}

void ProgressTracker::TaskAbandoned() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (in_flight_ > 0) --in_flight_;
}

void ProgressTracker::TaskFinished(const std::string& method, bool ok,
                                   bool used_fallback, double task_seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (in_flight_ > 0) --in_flight_;
  const auto now = Clock::now();
  const double gap =
      std::chrono::duration<double>(now - last_finish_).count();
  last_finish_ = now;
  if (completed_ == 0) {
    ewma_gap_seconds_ = gap;
    ewma_task_seconds_ = task_seconds;
  } else {
    ewma_gap_seconds_ = kEwmaAlpha * gap + (1.0 - kEwmaAlpha) * ewma_gap_seconds_;
    ewma_task_seconds_ =
        kEwmaAlpha * task_seconds + (1.0 - kEwmaAlpha) * ewma_task_seconds_;
  }
  ++completed_;
  MethodTally& tally = by_method_[method];
  ++tally.completed;
  if (!ok) {
    ++failed_;
    ++tally.failed;
  }
  if (used_fallback) {
    ++fallback_;
    ++tally.fallback;
  }
  RenderLocked();
}

void ProgressTracker::EndRun() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!active_) return;
  final_elapsed_seconds_ =
      std::chrono::duration<double>(Clock::now() - run_start_).count();
  active_ = false;
  if (mode_ == ProgressMode::kBar) {
    DefaultLogger().SetPreTextHook(nullptr);
    if (bar_visible_.exchange(false, std::memory_order_acq_rel)) {
      std::fputs("\r\033[K", stream_);
      std::fflush(stream_);
    }
  }
  if (mode_ != ProgressMode::kOff) {
    const ProgressSnapshot s = SnapshotLocked();
    DefaultLogger().Info(
        "run finished",
        {{"completed", std::to_string(s.completed)},
         {"resumed", std::to_string(s.resumed)},
         {"failed", std::to_string(s.failed)},
         {"fallback", std::to_string(s.fallback)},
         {"elapsed", Humanize(s.elapsed_seconds)}});
  }
}

ProgressSnapshot ProgressTracker::SnapshotLocked() const {
  ProgressSnapshot s;
  s.active = active_;
  s.total = total_;
  s.resumed = resumed_;
  s.completed = completed_;
  s.failed = failed_;
  s.fallback = fallback_;
  s.in_flight = in_flight_;
  const std::size_t accounted = resumed_ + completed_ + in_flight_;
  s.queued = total_ > accounted ? total_ - accounted : 0;
  s.elapsed_seconds =
      active_ ? std::chrono::duration<double>(Clock::now() - run_start_).count()
              : final_elapsed_seconds_;
  s.ewma_task_seconds = ewma_task_seconds_;
  s.tasks_per_second =
      s.elapsed_seconds > 0.0
          ? static_cast<double>(completed_) / s.elapsed_seconds
          : 0.0;
  const std::size_t done = resumed_ + completed_;
  const std::size_t remaining = total_ > done ? total_ - done : 0;
  if (remaining == 0) {
    s.eta_seconds = 0.0;
  } else if (completed_ == 0) {
    s.eta_seconds = -1.0;  // No completions yet: unknown.
  } else {
    s.eta_seconds = ewma_gap_seconds_ * static_cast<double>(remaining);
  }
  return s;
}

ProgressSnapshot ProgressTracker::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return SnapshotLocked();
}

std::map<std::string, MethodTally> ProgressTracker::MethodTallies() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return by_method_;
}

void ProgressTracker::SetShardStats(const ShardStats& stats) {
  const std::lock_guard<std::mutex> lock(mutex_);
  shard_stats_ = stats;
}

ShardStats ProgressTracker::GetShardStats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shard_stats_;
}

void ProgressTracker::SetServeStats(const ServeStats& stats) {
  const std::lock_guard<std::mutex> lock(mutex_);
  serve_stats_ = stats;
}

void ProgressTracker::RenderLocked() {
  if (mode_ != ProgressMode::kBar && mode_ != ProgressMode::kPlain) return;
  const auto now = Clock::now();
  const auto spacing =
      mode_ == ProgressMode::kBar
          ? std::chrono::duration_cast<Clock::duration>(kBarRefresh)
          : std::chrono::duration_cast<Clock::duration>(kHeartbeat);
  const std::size_t done = resumed_ + completed_;
  const bool final_task = active_ && done >= total_;
  if (!final_task && now - last_render_ < spacing) return;
  last_render_ = now;

  const ProgressSnapshot s = SnapshotLocked();
  if (mode_ == ProgressMode::kPlain) {
    DefaultLogger().Info(
        "progress",
        {{"done", std::to_string(done) + "/" + std::to_string(s.total)},
         {"failed", std::to_string(s.failed)},
         {"in_flight", std::to_string(s.in_flight)},
         {"tasks_per_sec",
          [&] {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.2f", s.tasks_per_second);
            return std::string(buf);
          }()},
         {"eta", Humanize(s.eta_seconds)}});
    return;
  }

  // Bar: "[=========>           ]  12/64  18%  1.2 t/s  eta 45s  fail 2"
  const double frac =
      s.total > 0 ? static_cast<double>(done) / static_cast<double>(s.total)
                  : 0.0;
  const int fill = static_cast<int>(frac * kBarWidth);
  std::string line = "\r\033[K[";
  for (int i = 0; i < kBarWidth; ++i) {
    line += i < fill ? '=' : (i == fill ? '>' : ' ');
  }
  char tail[128];
  std::snprintf(tail, sizeof(tail), "] %zu/%zu %3.0f%% %.1f t/s eta %s", done,
                s.total, frac * 100.0, s.tasks_per_second,
                Humanize(s.eta_seconds).c_str());
  line += tail;
  if (s.failed > 0) {
    std::snprintf(tail, sizeof(tail), " fail %zu", s.failed);
    line += tail;
  }
  std::fwrite(line.data(), 1, line.size(), stream_);
  std::fflush(stream_);
  bar_visible_.store(true, std::memory_order_release);
}

std::string ProgressTracker::StatusJson(const std::string& run_id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const ProgressSnapshot s = SnapshotLocked();
  std::string out = "{\"run_id\":";
  base::AppendJsonString(&out, run_id);
  out += ",\"active\":";
  out += s.active ? "true" : "false";
  out += ",\"total\":" + std::to_string(s.total);
  out += ",\"resumed\":" + std::to_string(s.resumed);
  out += ",\"completed\":" + std::to_string(s.completed);
  out += ",\"failed\":" + std::to_string(s.failed);
  out += ",\"fallback\":" + std::to_string(s.fallback);
  out += ",\"in_flight\":" + std::to_string(s.in_flight);
  out += ",\"queued\":" + std::to_string(s.queued);
  out += ",\"elapsed_seconds\":";
  AppendJsonNumber(&out, s.elapsed_seconds);
  out += ",\"ewma_task_seconds\":";
  AppendJsonNumber(&out, s.ewma_task_seconds);
  out += ",\"tasks_per_second\":";
  AppendJsonNumber(&out, s.tasks_per_second);
  out += ",\"eta_seconds\":";
  AppendJsonNumber(&out, s.eta_seconds);
  out += ",\"methods\":{";
  bool first = true;
  for (const auto& [method, tally] : by_method_) {
    if (!first) out += ',';
    first = false;
    base::AppendJsonString(&out, method);
    out += ":{\"completed\":" + std::to_string(tally.completed);
    out += ",\"failed\":" + std::to_string(tally.failed);
    out += ",\"fallback\":" + std::to_string(tally.fallback);
    out += '}';
  }
  out += '}';
  if (shard_stats_.enabled) {
    const ShardStats& sh = shard_stats_;
    out += ",\"shard\":{";
    out += "\"transport\":";
    base::AppendJsonString(
        &out, sh.transport.empty() ? "socketpair" : sh.transport);
    out += ",\"workers\":" + std::to_string(sh.workers);
    out += ",\"workers_live\":" + std::to_string(sh.workers_live);
    out += ",\"workers_spawned\":" + std::to_string(sh.workers_spawned);
    out += ",\"worker_deaths\":" + std::to_string(sh.worker_deaths);
    out += ",\"shards_total\":" + std::to_string(sh.shards_total);
    out += ",\"shards_completed\":" + std::to_string(sh.shards_completed);
    out += ",\"redispatches\":" + std::to_string(sh.redispatches);
    out += ",\"quarantined\":" + std::to_string(sh.quarantined);
    out += ",\"connections\":" + std::to_string(sh.connections);
    out += ",\"reconnects\":" + std::to_string(sh.reconnects);
    out += ",\"disconnects\":" + std::to_string(sh.disconnects);
    out += ",\"fenced_completions\":" + std::to_string(sh.fenced_completions);
    out += ",\"corrupt_frames\":" + std::to_string(sh.corrupt_frames);
    if (!sh.fleet.empty()) {
      out += ",\"fleet\":[";
      bool first_worker = true;
      for (const ShardStats::WorkerStatus& w : sh.fleet) {
        if (!first_worker) out += ',';
        first_worker = false;
        out += "{\"pid\":" + std::to_string(w.pid);
        out += ",\"tasks_completed\":" + std::to_string(w.tasks_completed);
        out += ",\"cpu_seconds\":";
        AppendJsonNumber(&out, w.cpu_seconds);
        out += ",\"peak_rss_mb\":";
        AppendJsonNumber(&out, w.peak_rss_mb);
        out += ",\"heartbeat_age_seconds\":";
        AppendJsonNumber(&out, w.heartbeat_age_seconds);
        out += ",\"clock_offset_us\":";
        AppendJsonNumber(&out, w.clock_offset_us);
        out += '}';
      }
      out += ']';
    }
    out += '}';
  }
  if (serve_stats_.enabled) {
    const ServeStats& sv = serve_stats_;
    out += ",\"serve\":{";
    out += "\"models_registered\":" + std::to_string(sv.models_registered);
    out += ",\"models_loaded\":" + std::to_string(sv.models_loaded);
    out += ",\"admitted\":" + std::to_string(sv.admitted);
    out += ",\"completed\":" + std::to_string(sv.completed);
    out += ",\"failed\":" + std::to_string(sv.failed);
    out += ",\"shed\":" + std::to_string(sv.shed);
    out += ",\"batches\":" + std::to_string(sv.batches);
    out += ",\"max_batch\":" + std::to_string(sv.max_batch);
    out += ",\"queue_depth\":" + std::to_string(sv.queue_depth);
    const auto quantile = [&](double value) {
      if (value < 0.0) {
        out += "null";  // No completed requests yet.
      } else {
        AppendJsonNumber(&out, value);
      }
    };
    out += ",\"latency\":{\"p50\":";
    quantile(sv.latency_p50);
    out += ",\"p95\":";
    quantile(sv.latency_p95);
    out += ",\"p99\":";
    quantile(sv.latency_p99);
    out += '}';
    out += '}';
  }
  out += '}';
  return out;
}

ProgressTracker& DefaultProgressTracker() {
  static ProgressTracker* tracker = new ProgressTracker();
  return *tracker;
}

}  // namespace tfb::obs
