#ifndef TFB_OBS_LOG_H_
#define TFB_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

/// \file
/// Structured, leveled logging (the live-telemetry counterpart of the
/// metrics/trace substrate — see the "Observability" section of DESIGN.md).
/// Every pipeline log line carries a level, a wall-clock timestamp, and
/// typed context fields (dataset, method, horizon, ...) instead of the
/// former free-form `fprintf(stderr, "[tfb] ...")` calls. Two sinks:
///
///  - text: one human-readable line per event on a FILE* (stderr by
///    default) — `[12:34:56.789 WARN ] cannot append journal path=run.jsonl`
///  - JSONL: one JSON object per event appended to a file
///    (`--log-json=FILE`, config key `log_json`), machine-readable for
///    post-hoc run forensics — `{"ts":"...","level":"warn","msg":...}`
///
/// Filtering is one relaxed atomic load; a suppressed line costs no
/// formatting, no locks, and no allocation, so DEBUG-level instrumentation
/// can stay in hot paths. Sinks are mutex-serialized: concurrent runner
/// workers never interleave partial lines. CLI: `--log-level=LEVEL`
/// (config key `log_level`).

namespace tfb::obs {

/// Severity, ordered; kOff filters everything.
enum class LogLevel : int {
  kTrace = 0,
  kDebug,
  kInfo,
  kWarn,
  kError,
  kOff,
};

/// Fixed-width upper-case label ("TRACE", "DEBUG", "INFO ", "WARN ",
/// "ERROR") for the text sink; "OFF" for kOff.
const char* LogLevelName(LogLevel level);

/// Parses "trace" | "debug" | "info" | "warn"/"warning" | "error" | "off"
/// (case-insensitive); nullopt for anything else.
std::optional<LogLevel> ParseLogLevel(const std::string& name);

/// One typed context field attached to a log event. Rendered `key=value`
/// in the text sink (quoted when the value contains spaces or quotes) and
/// as a top-level `"key":"value"` member in the JSONL sink — so keys should
/// not collide with the reserved `ts`/`level`/`msg`.
struct LogField {
  std::string key;
  std::string value;
};

/// The leveled, thread-safe logger. Cheap when filtered: `Log` below the
/// configured level is a single relaxed atomic load.
class Logger {
 public:
  Logger() = default;
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;
  ~Logger();

  /// Minimum level that gets emitted. Default kInfo.
  void SetLevel(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  bool ShouldLog(LogLevel level) const {
    return static_cast<int>(level) >= level_.load(std::memory_order_relaxed);
  }

  /// Text sink stream; stderr by default, nullptr disables text output.
  /// The stream is borrowed, never closed.
  void SetTextSink(std::FILE* sink);

  /// Opens (appends to) a JSONL sink at `path`; replaces any previous one.
  /// Returns false (and keeps the previous sink) when the file cannot be
  /// opened.
  bool OpenJsonlSink(const std::string& path);
  void CloseJsonlSink();

  /// A hook invoked (under the sink lock) immediately before a text line is
  /// written — the TTY progress bar registers one that erases itself so log
  /// lines and the bar share stderr without mangling each other. The hook
  /// must not call back into the logger.
  void SetPreTextHook(std::function<void()> hook);

  /// Emits one event to every active sink if `level` passes the filter.
  void Log(LogLevel level, std::string_view message,
           std::initializer_list<LogField> fields = {}) {
    Log(level, message, fields.begin(), fields.end());
  }
  /// The same, for a field list built at run time.
  void Log(LogLevel level, std::string_view message,
           const LogField* fields_begin, const LogField* fields_end);

  void Trace(std::string_view message,
             std::initializer_list<LogField> fields = {}) {
    Log(LogLevel::kTrace, message, fields);
  }
  void Debug(std::string_view message,
             std::initializer_list<LogField> fields = {}) {
    Log(LogLevel::kDebug, message, fields);
  }
  void Info(std::string_view message,
            std::initializer_list<LogField> fields = {}) {
    Log(LogLevel::kInfo, message, fields);
  }
  void Warn(std::string_view message,
            std::initializer_list<LogField> fields = {}) {
    Log(LogLevel::kWarn, message, fields);
  }
  void Error(std::string_view message,
             std::initializer_list<LogField> fields = {}) {
    Log(LogLevel::kError, message, fields);
  }

  /// Events that passed the filter since construction (for tests).
  std::uint64_t lines_logged() const {
    return lines_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> level_{static_cast<int>(LogLevel::kInfo)};
  std::atomic<std::uint64_t> lines_{0};
  mutable std::mutex mutex_;          // Serializes sink writes.
  std::FILE* text_sink_ = stderr;     // Borrowed; nullptr = disabled.
  std::FILE* jsonl_sink_ = nullptr;   // Owned; closed on replace/destroy.
  std::function<void()> pre_text_hook_;
};

/// The process-wide logger every pipeline call site writes to.
Logger& DefaultLogger();

}  // namespace tfb::obs

#endif  // TFB_OBS_LOG_H_
