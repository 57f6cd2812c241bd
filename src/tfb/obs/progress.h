#ifndef TFB_OBS_PROGRESS_H_
#define TFB_OBS_PROGRESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

/// \file
/// Live run progress: the BenchmarkRunner feeds this tracker one event per
/// task (started / finished), and the tracker derives completion counts, an
/// EWMA of inter-completion gaps, throughput, and an ETA. Two consumers:
///
///  - the terminal, via `--progress=auto|bar|plain|off` — a `\r`-refreshed
///    TTY bar, or plain heartbeat lines through the structured logger when
///    stderr is not a TTY (auto picks between them with isatty);
///  - the HTTP /status endpoint, via StatusJson() (see http_exporter.h).
///
/// ETA semantics: the tracker smooths the gap between consecutive task
/// *completions* (EWMA, alpha 0.3) and multiplies by the remaining task
/// count. Because completion gaps already reflect the worker-pool
/// parallelism, no thread-count correction is needed; the estimate adapts
/// within a few completions when task costs drift. eta_seconds is -1 until
/// the first completion of the active run (unknown), and 0 once done.

namespace tfb::obs {

/// How progress is rendered on the terminal.
enum class ProgressMode {
  kOff,    ///< No terminal rendering (tracker still feeds /status).
  kAuto,   ///< kBar when the stream is a TTY, else kPlain.
  kBar,    ///< Single self-erasing `\r` progress bar line.
  kPlain,  ///< Rate-limited heartbeat lines via the structured logger.
};

/// Parses "auto" | "bar" | "plain" | "off" (case-insensitive).
std::optional<ProgressMode> ParseProgressMode(const std::string& name);
const char* ProgressModeName(ProgressMode mode);

/// Per-method completion tally for the /status payload.
struct MethodTally {
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t fallback = 0;
};

/// Sharded-execution telemetry (fed by pipeline::ShardCoordinator, exposed
/// as the "shard" object of /status): worker liveness, shard progress, and
/// the fault-recovery counters — how many workers died, how many shards
/// were re-dispatched after a death, and how many poison tasks were
/// quarantined. `enabled` stays true after the run so a post-mortem scrape
/// still sees the final numbers.
struct ShardStats {
  bool enabled = false;
  std::string transport;            ///< "socketpair" | "tcp".
  std::size_t workers = 0;          ///< Configured worker-process count.
  std::size_t workers_live = 0;
  std::size_t workers_spawned = 0;  ///< Including respawns after deaths.
  std::size_t worker_deaths = 0;
  std::size_t shards_total = 0;
  std::size_t shards_completed = 0;
  std::size_t redispatches = 0;     ///< Shards re-queued after a death.
  std::size_t quarantined = 0;      ///< Poison tasks given CRASHED rows.

  // Transport health (see pipeline::ShardRunStats for semantics).
  std::size_t connections = 0;
  std::size_t reconnects = 0;
  std::size_t disconnects = 0;
  std::size_t fenced_completions = 0;
  std::size_t corrupt_frames = 0;

  /// One live, welcomed worker connection as the coordinator sees it:
  /// identity, the worker's latest self-reported usage (shipped in its
  /// telemetry batches), how long it has been silent, and the estimated
  /// clock offset used to align its spans. Rendered as the "fleet" array
  /// of the /status shard object.
  struct WorkerStatus {
    std::uint64_t pid = 0;
    std::uint64_t tasks_completed = 0;
    double cpu_seconds = 0.0;
    double peak_rss_mb = 0.0;
    double heartbeat_age_seconds = 0.0;
    double clock_offset_us = 0.0;
  };
  std::vector<WorkerStatus> fleet;
};

/// Serving-plane telemetry (fed by serve::ForecastService, exposed as the
/// "serve" object of /status): model registry occupancy plus the admission
/// and batching counters. Mirrors the ShardStats pattern above.
struct ServeStats {
  bool enabled = false;
  std::size_t models_registered = 0;
  std::size_t models_loaded = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;       ///< Requests answered 429.
  std::uint64_t batches = 0;
  std::size_t max_batch = 0;    ///< Largest coalesced batch so far.
  std::size_t queue_depth = 0;

  // End-to-end request latency quantiles in seconds (from the service's
  // tfb_serve_latency_seconds histogram); negative until the first
  // completed request, rendered as JSON null.
  double latency_p50 = -1.0;
  double latency_p95 = -1.0;
  double latency_p99 = -1.0;
};

/// Point-in-time view of the run, as exposed on /status.
struct ProgressSnapshot {
  bool active = false;          ///< Between BeginRun and EndRun.
  std::size_t total = 0;        ///< All tasks in the grid.
  std::size_t resumed = 0;      ///< Skipped via --resume journal replay.
  std::size_t completed = 0;    ///< Finished this run (ok or failed).
  std::size_t failed = 0;       ///< Completed with ok=false.
  std::size_t fallback = 0;     ///< Completed via the fallback forecaster.
  std::size_t in_flight = 0;    ///< Started but not yet finished.
  std::size_t queued = 0;       ///< Not yet started (total-resumed-done-run).
  double elapsed_seconds = 0.0;
  double ewma_task_seconds = 0.0;   ///< Smoothed per-task wall time.
  double tasks_per_second = 0.0;    ///< completed / elapsed.
  double eta_seconds = -1.0;        ///< -1 until estimable; 0 when done.
};

/// Thread-safe run-progress accumulator + optional terminal renderer.
/// All methods may be called concurrently from runner workers.
class ProgressTracker {
 public:
  ProgressTracker() = default;
  ProgressTracker(const ProgressTracker&) = delete;
  ProgressTracker& operator=(const ProgressTracker&) = delete;

  /// Chooses the terminal rendering. kAuto resolves against
  /// `isatty(fileno(stream))` at BeginRun time. `stream` is borrowed
  /// (stderr by default) and only used by kBar; kPlain goes through
  /// DefaultLogger(). Call before BeginRun.
  void SetDisplay(ProgressMode mode, std::FILE* stream = stderr);

  /// Starts a run of `total` tasks, `resumed` of which were replayed from
  /// the journal and will never produce Task* events. Resets all tallies.
  void BeginRun(std::size_t total, std::size_t resumed);

  void TaskStarted();
  /// `task_seconds` is the task's own wall time (used for the smoothed
  /// per-task duration; the ETA uses inter-completion gaps instead).
  void TaskFinished(const std::string& method, bool ok, bool used_fallback,
                    double task_seconds);
  /// A started task that will not finish on this executor (its worker
  /// process died mid-task): leaves in_flight without counting as a
  /// completion. The task re-enters via TaskStarted when re-dispatched.
  void TaskAbandoned();

  /// Finishes the run: erases the bar / emits the final heartbeat.
  void EndRun();

  ProgressSnapshot Snapshot() const;
  std::map<std::string, MethodTally> MethodTallies() const;

  /// Publishes sharded-execution state; StatusJson then carries a "shard"
  /// object. Survives EndRun (final numbers stay scrapeable) and is reset
  /// by the next BeginRun of a non-sharded run via SetShardStats({}).
  void SetShardStats(const ShardStats& stats);
  ShardStats GetShardStats() const;

  /// Publishes serving-plane state; StatusJson then carries a "serve"
  /// object. Same lifecycle as SetShardStats.
  void SetServeStats(const ServeStats& stats);

  /// The /status payload: one JSON object with the snapshot fields, the
  /// per-method tallies, and `run_id`.
  std::string StatusJson(const std::string& run_id) const;

 private:
  using Clock = std::chrono::steady_clock;

  ProgressSnapshot SnapshotLocked() const;  // Requires mutex_ held.
  void RenderLocked();                      // Requires mutex_ held.

  mutable std::mutex mutex_;
  ProgressMode mode_ = ProgressMode::kOff;  // Resolved (never kAuto) after
                                            // BeginRun.
  ProgressMode requested_mode_ = ProgressMode::kOff;
  std::FILE* stream_ = nullptr;  // Borrowed; bar sink.

  bool active_ = false;
  std::size_t total_ = 0;
  std::size_t resumed_ = 0;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::size_t fallback_ = 0;
  std::size_t in_flight_ = 0;
  double ewma_gap_seconds_ = 0.0;   // Smoothed inter-completion gap.
  double ewma_task_seconds_ = 0.0;  // Smoothed single-task duration.
  double final_elapsed_seconds_ = 0.0;  // Frozen at EndRun.
  // True while a bar line is on screen. The logger pre-text hook clears it
  // (and erases the line) without taking mutex_, so a log line never lands
  // mid-bar and the hook cannot deadlock against a rendering worker.
  std::atomic<bool> bar_visible_{false};
  Clock::time_point run_start_{};
  Clock::time_point last_finish_{};
  Clock::time_point last_render_{};
  std::map<std::string, MethodTally> by_method_;
  ShardStats shard_stats_;
  ServeStats serve_stats_;
};

/// The process-wide tracker shared by the runner, the terminal renderer,
/// and the HTTP exporter.
ProgressTracker& DefaultProgressTracker();

}  // namespace tfb::obs

#endif  // TFB_OBS_PROGRESS_H_
