#include "tfb/pipeline/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "tfb/base/check.h"
#include "tfb/base/status.h"
#include "tfb/methods/guarded_forecaster.h"
#include "tfb/obs/log.h"
#include "tfb/obs/metrics.h"
#include "tfb/obs/progress.h"
#include "tfb/parallel/thread_pool.h"
#include "tfb/obs/rusage.h"
#include "tfb/obs/trace.h"
#include "tfb/pipeline/journal.h"
#include "tfb/proc/sandbox.h"

namespace tfb::pipeline {

namespace {

using Clock = std::chrono::steady_clock;

// Validation-selection split for a series truncated at the end of the
// validation region: the old train part stays training data, the old
// validation part becomes the pseudo-test region.
ts::SplitRatio ValidationSplit(const ts::SplitRatio& split) {
  const double denom = split.train + split.val;
  ts::SplitRatio out;
  out.train = denom > 0.0 ? split.train / denom : 0.8;
  out.val = 0.0;
  out.test = denom > 0.0 ? split.val / denom : 0.2;
  return out;
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", seconds);
  return buf;
}

void AppendNote(std::string* note, const std::string& addition) {
  if (!note->empty()) *note += "; ";
  *note += addition;
}

/// Everything one evaluation attempt produces; `status` decides whether the
/// row becomes ok=true or an error cell.
struct TaskOutcome {
  base::Status status;
  eval::EvalResult result;
  std::string selected_config;
  std::string note;
  /// CPU consumed by the evaluation, measured on the thread that ran it.
  obs::ResourceUsage usage;
};

/// Span/metric identity of a task, rendered once per RunOne.
std::string TaskArgs(const BenchmarkTask& task) {
  return obs::ArgsJson({{"dataset", task.dataset},
                        {"method", task.method},
                        {"horizon", std::to_string(task.horizon)}});
}

/// Hyper selection (NaN-aware) plus the final guarded evaluation. All
/// forecaster interaction goes through GuardedForecaster, so wrong-shape or
/// non-finite output and cooperative deadline hits surface here as a
/// non-ok status instead of aborts or silently poisoned metrics.
TaskOutcome EvaluateCandidates(
    const BenchmarkTask& task,
    const std::vector<methods::MethodConfig>& candidates,
    const RunnerOptions& options, methods::Deadline deadline) {
  TaskOutcome out;
  std::size_t best = 0;
  if (candidates.size() > 1) {
    const obs::ScopedSpan span("hyper_select", "runner", TaskArgs(task));
    const ts::Split split = ChronologicalSplit(task.series, task.rolling.split);
    const ts::TimeSeries train_val = task.series.Slice(0, split.val_end);
    const ts::SplitRatio val_split = ValidationSplit(task.rolling.split);
    // Validation runs RollingForecastEvaluate on train_val; this is its
    // "test region shorter than the horizon" check, made up front because
    // it would fail every candidate alike.
    const std::size_t val_start =
        ChronologicalSplit(train_val, val_split).val_end;
    if (train_val.length() < task.horizon + 16) {
      // Previously a silent `break` that selected config 0 without
      // evaluating anything; now surfaced on the row.
      out.note =
          "hyper selection skipped: validation region too short, "
          "using default config";
    } else if (val_start + task.horizon > train_val.length()) {
      out.note = "hyper selection skipped: validation region of " +
                 std::to_string(train_val.length() - val_start) +
                 " points is shorter than the horizon of " +
                 std::to_string(task.horizon) + ", using default config";
    } else {
      eval::RollingOptions val_options = task.rolling;
      val_options.split = val_split;
      val_options.max_windows = options.hyper_val_windows;
      val_options.drop_last = false;
      const eval::Metric selection_metric = val_options.metrics.empty()
                                                ? eval::Metric::kMae
                                                : val_options.metrics[0];
      val_options.metrics = {selection_metric};
      double best_score = std::numeric_limits<double>::infinity();
      bool any_finite = false;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        auto state = std::make_shared<methods::GuardState>();
        const eval::EvalResult r = eval::RollingForecastEvaluate(
            methods::GuardFactory(candidates[i].factory, state, deadline),
            train_val, task.horizon, val_options);
        if (state->deadline_exceeded()) {
          out.status = state->status();
          return out;
        }
        // A candidate that fails validation is skipped, not selected.
        if (!r.ok || !state->ok()) continue;
        const double score = r.metrics.at(selection_metric);
        // A non-finite score never wins via `<`; skip it explicitly so an
        // all-NaN search is reported instead of silently picking config 0.
        if (!std::isfinite(score)) continue;
        any_finite = true;
        if (score < best_score) {
          best_score = score;
          best = i;
        }
      }
      if (!any_finite) {
        out.note =
            "hyper selection fell back to the default config: no candidate "
            "produced a finite validation score";
      }
    }
  }
  out.selected_config = candidates[best].name;

  auto state = std::make_shared<methods::GuardState>();
  out.result = eval::RollingForecastEvaluate(
      methods::GuardFactory(candidates[best].factory, state, deadline),
      task.series, task.horizon, task.rolling);
  if (!out.result.ok) {
    out.status = base::Status::InvalidInput(out.result.error);
    return out;
  }
  if (!state->ok()) {
    out.status = state->status();
    return out;
  }
  for (const auto& [metric, value] : out.result.metrics) {
    if (!std::isfinite(value)) {
      out.status = base::Status::InvalidOutput(
          "non-finite " + eval::MetricName(metric) + " over " +
          std::to_string(out.result.num_windows) + " windows");
      return out;
    }
  }
  return out;
}

/// EvaluateCandidates plus per-thread CPU accounting. The evaluation runs
/// entirely on the calling thread (directly, on the watchdog worker, or in
/// the sandbox child), so a RUSAGE_THREAD delta attributes exactly this
/// task's CPU work — other pool workers never pollute the number.
TaskOutcome EvaluateCandidatesMeasured(
    const BenchmarkTask& task,
    const std::vector<methods::MethodConfig>& candidates,
    const RunnerOptions& options, methods::Deadline deadline) {
  const obs::ResourceUsage before = obs::ThreadUsage();
  TaskOutcome out = EvaluateCandidates(task, candidates, options, deadline);
  out.usage = obs::UsageDelta(before, obs::ThreadUsage());
  return out;
}

/// State shared between a watchdog worker thread and its supervisors. All
/// inputs are deep copies, so a worker outliving its task never touches
/// caller memory; `done` flips (under `mutex`, with a `cv` broadcast) as
/// the worker's last act, which is what makes an abandoned thread joinable
/// later.
struct WatchdogShared {
  BenchmarkTask task;
  std::vector<methods::MethodConfig> candidates;
  RunnerOptions options;
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  TaskOutcome outcome;
};

/// Custody of watchdog workers that blew past their hard cutoff. They used
/// to be detach()ed — a data race at process exit (the thread could still
/// be running while static destructors tore the world down) that ASan/TSan
/// rightly flag. Instead the runner *adopts* them here and joins each one
/// as soon as its `done` flag flips: every thread is eventually joined,
/// shutdown is race-free, and a hung-forever worker is visible (Reap
/// reports it) rather than silently leaked.
class WatchdogReaper {
 public:
  static WatchdogReaper& Instance() {
    static WatchdogReaper* reaper = new WatchdogReaper();  // Leaked.
    return *reaper;
  }

  void Adopt(std::thread worker, std::shared_ptr<WatchdogShared> shared) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ReapLocked(Clock::now());  // Opportunistic: bound the roster size.
    entries_.push_back(Entry{std::move(worker), std::move(shared)});
    if (obs::Enabled()) {
      obs::DefaultRegistry()
          .GetCounter("tfb_watchdog_abandoned_total")
          .Increment();
    }
  }

  /// Joins every adopted worker whose task has finished, waiting up to
  /// `timeout_seconds` total for the rest. Returns how many remain.
  std::size_t Reap(double timeout_seconds) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_seconds));
    const std::lock_guard<std::mutex> lock(mutex_);
    ReapLocked(deadline);
    return entries_.size();
  }

 private:
  struct Entry {
    std::thread worker;
    std::shared_ptr<WatchdogShared> shared;
  };

  void ReapLocked(Clock::time_point deadline) {
    auto it = entries_.begin();
    while (it != entries_.end()) {
      bool done;
      {
        std::unique_lock<std::mutex> lock(it->shared->mutex);
        done = it->shared->cv.wait_until(lock, deadline,
                                         [&] { return it->shared->done; });
      }
      if (done) {
        it->worker.join();
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::mutex mutex_;
  std::vector<Entry> entries_;
};

/// Hard watchdog around EvaluateCandidates: the evaluation runs on its own
/// thread; a task stuck inside a single Fit/Forecast call (which the
/// cooperative guard cannot interrupt) is abandoned once the deadline plus
/// a grace period passes. Abandoned workers are handed to the
/// WatchdogReaper, which joins them when they eventually finish.
TaskOutcome EvaluateWithWatchdog(
    const BenchmarkTask& task,
    const std::vector<methods::MethodConfig>& candidates,
    const RunnerOptions& options) {
  auto shared = std::make_shared<WatchdogShared>();
  shared->task = task;
  shared->candidates = candidates;
  shared->options = options;
  const methods::Deadline deadline =
      methods::Deadline::After(options.deadline_seconds);
  std::thread worker([shared, deadline] {
    TaskOutcome outcome = EvaluateCandidatesMeasured(
        shared->task, shared->candidates, shared->options, deadline);
    const std::lock_guard<std::mutex> lock(shared->mutex);
    shared->outcome = std::move(outcome);
    shared->done = true;
    shared->cv.notify_all();
  });
  // Grace past the deadline: the cooperative guard usually trips first and
  // lets the evaluation finish cheaply; the hard cut is the last resort.
  const auto hard_cut =
      deadline.at + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            0.5 * options.deadline_seconds + 0.2));
  std::unique_lock<std::mutex> lock(shared->mutex);
  const bool finished =
      shared->cv.wait_until(lock, hard_cut, [&] { return shared->done; });
  lock.unlock();
  if (finished) {
    worker.join();
    return std::move(shared->outcome);
  }
  obs::DefaultLogger().Warn(
      "task abandoned at hard watchdog cutoff",
      {{"dataset", task.dataset},
       {"method", task.method},
       {"horizon", std::to_string(task.horizon)},
       {"deadline_s", FormatSeconds(options.deadline_seconds)}});
  WatchdogReaper::Instance().Adopt(std::move(worker), std::move(shared));
  TaskOutcome out;
  out.status = base::Status::DeadlineExceeded(
      "task still running at hard watchdog cutoff (deadline " +
      FormatSeconds(options.deadline_seconds) + "s); abandoned");
  return out;
}

TaskOutcome Evaluate(const BenchmarkTask& task,
                     const std::vector<methods::MethodConfig>& candidates,
                     const RunnerOptions& options) {
  if (options.deadline_seconds > 0.0) {
    return EvaluateWithWatchdog(task, candidates, options);
  }
  return EvaluateCandidatesMeasured(task, candidates, options,
                                    methods::Deadline{});
}

void FillMetrics(ResultRow* row, const eval::EvalResult& result) {
  row->metrics = result.metrics;
  row->num_windows = result.num_windows;
  row->fit_seconds = result.fit_seconds;
  row->inference_ms_per_window = result.inference_ms_per_window();
}

/// One evaluation attempt, fully resolved: the row carries everything the
/// caller may publish; the status keeps the machine-readable failure class
/// for the retry/fallback decisions.
struct AttemptResult {
  base::Status status;
  ResultRow row;
};

ResultRow BaseRow(const BenchmarkTask& task) {
  ResultRow row;
  row.dataset = task.dataset;
  row.method = task.method;
  row.horizon = task.horizon;
  return row;
}

/// Resolves a TaskOutcome into a publishable row (shared by the in-process
/// path in the parent and the sandboxed path inside the child).
AttemptResult ResolveOutcome(const BenchmarkTask& task, TaskOutcome outcome) {
  AttemptResult attempt;
  attempt.status = std::move(outcome.status);
  attempt.row = BaseRow(task);
  attempt.row.selected_config = std::move(outcome.selected_config);
  attempt.row.note = std::move(outcome.note);
  attempt.row.cpu_user_seconds = outcome.usage.user_cpu_seconds;
  attempt.row.cpu_sys_seconds = outcome.usage.sys_cpu_seconds;
  attempt.row.peak_rss_mb = outcome.usage.max_rss_mb;
  if (attempt.status.ok()) {
    FillMetrics(&attempt.row, outcome.result);
    attempt.row.ok = true;
  } else {
    attempt.row.error = attempt.status.ToString();
  }
  return attempt;
}

AttemptResult EvaluateInProcess(
    const BenchmarkTask& task,
    const std::vector<methods::MethodConfig>& candidates,
    const RunnerOptions& options) {
  return ResolveOutcome(task, Evaluate(task, candidates, options));
}

/// Process isolation: the evaluation runs in a fork()ed child under the
/// configured resource limits; the child ships its row back as one journal
/// line over the sandbox pipe. The cooperative deadline still runs inside
/// the child (it produces the cheapest, most descriptive timeout rows); the
/// supervisor's SIGKILL at the hard cutoff replaces the in-process watchdog
/// — and unlike the watchdog it actually *stops* the runaway task and
/// reclaims its memory.
AttemptResult EvaluateSandboxed(
    const BenchmarkTask& task,
    const std::vector<methods::MethodConfig>& candidates,
    const RunnerOptions& options) {
  proc::SandboxLimits limits;
  if (options.deadline_seconds > 0.0) {
    // Same grace past the deadline as the in-process watchdog: the child's
    // cooperative guard usually trips first and reports precisely.
    limits.wall_seconds = 1.5 * options.deadline_seconds + 0.2;
  }
  limits.cpu_seconds = options.cpu_limit_seconds;
  limits.memory_bytes = options.memory_limit_mb << 20;

  const proc::SandboxResult sandboxed = proc::RunInSandbox(
      [&task, &candidates, &options] {
        const AttemptResult attempt = ResolveOutcome(
            task, EvaluateCandidatesMeasured(
                      task, candidates, options,
                      methods::Deadline::After(options.deadline_seconds)));
        return JournalLine(attempt.row);
      },
      limits);

  // The child's self-reported thread usage (if any payload arrived) is
  // superseded by the supervisor's wait4(2) numbers: exact per-child CPU
  // plus peak RSS, available even when the child crashed or was killed.
  const auto stamp_usage = [&sandboxed](ResultRow* row) {
    if (!sandboxed.has_usage) return;
    row->cpu_user_seconds = sandboxed.usage.user_cpu_seconds;
    row->cpu_sys_seconds = sandboxed.usage.sys_cpu_seconds;
    row->peak_rss_mb = sandboxed.usage.max_rss_mb;
  };

  // Crash diagnostics: keep the child's stderr last words on failed rows
  // only — ok rows stay lean and byte-stable across isolation modes.
  const auto attach_stderr = [&sandboxed](ResultRow* row) {
    if (!row->ok && !sandboxed.stderr_tail.empty()) {
      row->stderr_tail = sandboxed.stderr_tail;
    }
  };

  AttemptResult attempt;
  attempt.row = BaseRow(task);
  if (sandboxed.fate == proc::TaskFate::kOk) {
    ResultRow parsed;
    if (ParseJournalLine(sandboxed.payload, &parsed)) {
      attempt.row = std::move(parsed);
      stamp_usage(&attempt.row);
      attach_stderr(&attempt.row);
      attempt.status = attempt.row.ok
                           ? base::Status::Ok()
                           : base::Status::FromString(attempt.row.error);
      return attempt;
    }
    attempt.status = base::Status::InvalidOutput(
        "sandboxed task returned an unparsable result payload");
  } else {
    attempt.status = sandboxed.status;
  }
  stamp_usage(&attempt.row);
  attempt.row.error = attempt.status.ToString();
  attach_stderr(&attempt.row);
  return attempt;
}

AttemptResult EvaluateAttempt(
    const BenchmarkTask& task,
    const std::vector<methods::MethodConfig>& candidates,
    const RunnerOptions& options) {
  const obs::ScopedSpan span(
      "attempt", "runner",
      obs::Enabled() ? TaskArgs(task) : std::string());
  if (options.isolation == Isolation::kProcess) {
    return EvaluateSandboxed(task, candidates, options);
  }
  return EvaluateInProcess(task, candidates, options);
}

/// Backoff before retry `attempt+1`: exponential in the attempt number with
/// a deterministic per-task jitter in [0.5, 1.5) — same task, same delays,
/// reproducible runs; different tasks, decorrelated delays, no retry
/// stampede across parallel workers. The final delay is clamped to
/// retry_backoff_max_ms (`*capped` reports when the clamp engaged, so the
/// journal note distinguishes a capped delay from a naturally short one).
double BackoffDelayMs(const RunnerOptions& options, const BenchmarkTask& task,
                      std::size_t attempt, bool* capped) {
  *capped = false;
  if (options.retry_backoff_ms <= 0.0) return 0.0;
  const double exponential =
      options.retry_backoff_ms * std::pow(2.0, static_cast<double>(attempt - 1));
  // FNV-1a over the task identity and attempt number.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  mix(task.dataset);
  mix(task.method);
  mix(std::to_string(task.horizon));
  mix(std::to_string(attempt));
  const double jitter = 0.5 + static_cast<double>(h % 1024) / 1024.0;
  double delay = exponential * jitter;
  if (options.retry_backoff_max_ms > 0.0 &&
      delay > options.retry_backoff_max_ms) {
    delay = options.retry_backoff_max_ms;
    *capped = true;
  }
  return delay;
}

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0fms", ms);
  return buf;
}

ResultRow RunOneImpl(const BenchmarkTask& task, const RunnerOptions& options_);

}  // namespace

std::size_t ReapAbandonedWorkers(double timeout_seconds) {
  return WatchdogReaper::Instance().Reap(timeout_seconds);
}

ResultRow BenchmarkRunner::RunOne(const BenchmarkTask& task) const {
  if (!obs::Enabled()) return RunOneImpl(task, options_);
  obs::Registry& registry = obs::DefaultRegistry();
  const double start_us = obs::TraceNowMicros();
  ResultRow row = RunOneImpl(task, options_);
  const double task_seconds = (obs::TraceNowMicros() - start_us) * 1e-6;
  registry.GetCounter("tfb_tasks_total").Increment();
  if (!row.ok) registry.GetCounter("tfb_tasks_failed_total").Increment();
  if (row.used_fallback) {
    registry.GetCounter("tfb_tasks_fallback_total").Increment();
  }
  if (row.attempts > 1) {
    registry.GetCounter("tfb_retries_total")
        .Increment(static_cast<double>(row.attempts - 1));
  }
  registry.GetHistogram("tfb_task_seconds", obs::ExponentialBounds())
      .Observe(task_seconds);
  obs::DefaultTracer().RecordComplete(
      "task", "runner", start_us, task_seconds * 1e6,
      obs::ArgsJson({{"dataset", task.dataset},
                     {"method", task.method},
                     {"horizon", std::to_string(task.horizon)},
                     {"ok", row.ok ? "true" : "false"},
                     {"attempts", std::to_string(row.attempts)}}));
  return row;
}

namespace {

ResultRow RunOneImpl(const BenchmarkTask& task,
                     const RunnerOptions& options_) {
  MethodParams params = task.params;
  params.horizon = task.horizon;
  if (params.period == 0) params.period = task.series.seasonal_period();

  std::vector<methods::MethodConfig> candidates;
  if (!task.custom_candidates.empty()) {
    candidates = task.custom_candidates;
  } else if (task.hyper_search) {
    candidates = HyperSearchSpace(task.method, params, task.max_hyper_sets);
  } else {
    auto config = MakeMethod(task.method, params);
    if (config) candidates.push_back(std::move(*config));
  }
  if (candidates.empty()) {
    ResultRow row = BaseRow(task);
    row.error = "unknown method: " + task.method;
    return row;
  }

  const std::size_t max_attempts = 1 + options_.max_retries;
  AttemptResult attempt_result;
  std::size_t attempts_used = 0;
  std::string retry_note;
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    attempts_used = attempt;
    attempt_result = EvaluateAttempt(task, candidates, options_);
    if (attempt_result.status.ok()) {
      if (attempt > 1) {
        AppendNote(&attempt_result.row.note,
                   "succeeded on attempt " + std::to_string(attempt));
      }
      break;
    }
    // A hung method stays hung: retrying a deadline failure only burns
    // another full budget.
    if (attempt_result.status.code() == base::StatusCode::kDeadlineExceeded) {
      break;
    }
    if (attempt < max_attempts) {
      bool capped = false;
      const double delay_ms = BackoffDelayMs(options_, task, attempt, &capped);
      if (delay_ms > 0.0) {
        if (obs::Enabled()) {
          obs::DefaultRegistry()
              .GetCounter("tfb_retry_backoff_ms_total")
              .Increment(delay_ms);
        }
        AppendNote(&retry_note, "backed off " + FormatMs(delay_ms) +
                                    (capped ? " (capped)" : "") +
                                    " before attempt " +
                                    std::to_string(attempt + 1));
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay_ms));
      }
    }
  }
  ResultRow row = std::move(attempt_result.row);
  row.attempts = attempts_used;
  if (!retry_note.empty()) AppendNote(&row.note, retry_note);
  if (attempt_result.status.ok()) return row;

  // Graceful degradation: run the configured fallback forecaster so the
  // table stays complete; `error` keeps the primary failure on record.
  if (!options_.fallback_method.empty() &&
      options_.fallback_method != task.method) {
    if (auto fallback = MakeMethod(options_.fallback_method, params)) {
      const std::vector<methods::MethodConfig> fb_candidates{
          std::move(*fallback)};
      const AttemptResult fb = EvaluateAttempt(task, fb_candidates, options_);
      if (fb.status.ok()) {
        row.metrics = fb.row.metrics;
        row.num_windows = fb.row.num_windows;
        row.fit_seconds = fb.row.fit_seconds;
        row.inference_ms_per_window = fb.row.inference_ms_per_window;
        row.ok = true;
        row.used_fallback = true;
        row.selected_config = fb_candidates[0].name;
        AppendNote(&row.note, "fell back to " + options_.fallback_method +
                                  " after primary failure");
      } else {
        AppendNote(&row.note, "fallback " + options_.fallback_method +
                                  " also failed: " + fb.status.ToString());
      }
    } else {
      AppendNote(&row.note,
                 "unknown fallback method: " + options_.fallback_method);
    }
  }
  return row;
}

}  // namespace

std::vector<ResultRow> BenchmarkRunner::Run(
    const std::vector<BenchmarkTask>& tasks) const {
  const bool observed = obs::Enabled();
  const obs::ScopedSpan run_span(
      "run", "runner",
      observed ? obs::ArgsJson(
                     {{"tasks", std::to_string(tasks.size())},
                      {"threads", std::to_string(options_.num_threads)}})
               : std::string());
  const auto run_start = Clock::now();
  // Time from run start until a worker picks the task up: with more tasks
  // than workers this is the queue wait that dominates p95 task turnaround.
  auto observe_queue_wait = [&] {
    if (!observed) return;
    obs::DefaultRegistry()
        .GetHistogram("tfb_queue_wait_seconds", obs::ExponentialBounds())
        .Observe(std::chrono::duration<double>(Clock::now() - run_start)
                     .count());
  };
  std::vector<ResultRow> rows(tasks.size());
  std::vector<std::size_t> pending;
  pending.reserve(tasks.size());

  // Resume: adopt journaled rows (success or failure — both are finished
  // outcomes) and only execute the cells the journal does not cover.
  std::vector<bool> adopted(tasks.size(), false);
  std::size_t resumed = 0;
  if (options_.resume && !options_.journal_path.empty()) {
    resumed = JournalIndex::Load(options_.journal_path)
                  .Adopt(tasks, options_.verbose, &rows, &adopted);
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!adopted[i]) pending.push_back(i);
  }

  // The progress tracker is always fed (it backs the HTTP /status payload
  // and costs one mutex hop per task); options_.progress only governs how —
  // or whether — it renders on the terminal.
  obs::ProgressTracker& progress = obs::DefaultProgressTracker();
  progress.SetDisplay(options_.progress);
  progress.BeginRun(tasks.size(), resumed);

  std::mutex sink_mutex;  // Serializes journal appends.
  auto finish = [&](std::size_t i, double task_seconds) {
    {
      const std::lock_guard<std::mutex> lock(sink_mutex);
      if (!options_.journal_path.empty() &&
          !AppendJournal(options_.journal_path, rows[i],
                         {options_.journal_fsync})) {
        obs::DefaultLogger().Warn("cannot append to journal",
                                  {{"path", options_.journal_path}});
      }
    }
    // Per-task lines: verbose runs log every completion at INFO (failures
    // at WARN so they stand out); quiet runs keep them at DEBUG, reachable
    // via --log-level=debug.
    obs::LogLevel level = obs::LogLevel::kDebug;
    if (options_.verbose) {
      level = rows[i].ok ? obs::LogLevel::kInfo : obs::LogLevel::kWarn;
    }
    if (obs::DefaultLogger().ShouldLog(level)) {
      std::string msg = rows[i].ok ? "task done" : "task failed";
      if (rows[i].used_fallback) msg += " (fallback)";
      if (rows[i].ok) {
        obs::DefaultLogger().Log(
            level, msg,
            {{"dataset", rows[i].dataset},
             {"method", rows[i].method},
             {"horizon", std::to_string(rows[i].horizon)}});
      } else {
        obs::DefaultLogger().Log(
            level, msg,
            {{"dataset", rows[i].dataset},
             {"method", rows[i].method},
             {"horizon", std::to_string(rows[i].horizon)},
             {"error", rows[i].error}});
      }
    }
    progress.TaskFinished(rows[i].method, rows[i].ok, rows[i].used_fallback,
                          task_seconds);
  };
  auto run_task = [&](std::size_t i) {
    observe_queue_wait();
    progress.TaskStarted();
    const auto task_start = Clock::now();
    rows[i] = RunOne(tasks[i]);
    finish(i, std::chrono::duration<double>(Clock::now() - task_start).count());
  };
  // Shared run epilogue for both execution paths: close out the progress
  // display and opportunistically join any watchdog workers whose hung
  // tasks have finished since they were abandoned.
  auto epilogue = [&] {
    progress.EndRun();
    WatchdogReaper::Instance().Reap(0.0);
  };

  const std::size_t threads = std::max<std::size_t>(
      1, std::min(options_.num_threads, pending.size()));
  if (threads <= 1) {
    for (const std::size_t i : pending) run_task(i);
    epilogue();
    return rows;
  }
  // While the grid fans out across tasks, the kernel thread pool shares
  // the machine with these workers: the reservation tells ParallelFor to
  // divide its lane budget by `threads`, so the two parallelism layers
  // never multiply into oversubscription. Purely a throughput hint — it
  // cannot change results (kernel output is thread-count-invariant).
  const parallel::CoarseReservation reservation(threads);
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    while (true) {
      const std::size_t slot = next.fetch_add(1);
      if (slot >= pending.size()) return;
      run_task(pending[slot]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  epilogue();
  return rows;
}

}  // namespace tfb::pipeline
