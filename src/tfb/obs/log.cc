#include "tfb/obs/log.h"

#include <cctype>
#include <ctime>
#include <span>

#include "tfb/base/json.h"

namespace tfb::obs {

namespace {

/// Wall-clock timestamp split into the pieces the two sinks need: an
/// ISO-8601 UTC date-time plus the millisecond remainder.
struct Stamp {
  char iso[24];   // "2026-08-06T10:11:12"
  int millis = 0;
};

Stamp Now() {
  Stamp stamp;
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  tm utc{};
  gmtime_r(&ts.tv_sec, &utc);
  std::strftime(stamp.iso, sizeof(stamp.iso), "%Y-%m-%dT%H:%M:%S", &utc);
  stamp.millis = static_cast<int>(ts.tv_nsec / 1000000);
  return stamp;
}

/// Lower-case level name for the JSONL sink ("trace".."error").
const char* JsonLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

bool NeedsQuoting(std::string_view value) {
  if (value.empty()) return true;
  for (const char c : value) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '"' ||
        c == '=' || static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

/// `key=value` text rendering; values with spaces/quotes/control bytes are
/// double-quoted with minimal escaping so the line stays one line.
void AppendTextField(std::string* out, const LogField& field) {
  *out += ' ';
  *out += field.key;
  *out += '=';
  if (!NeedsQuoting(field.value)) {
    *out += field.value;
    return;
  }
  out->push_back('"');
  for (const char c : field.value) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\x%02x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

std::optional<LogLevel> ParseLogLevel(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (const char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "trace") return LogLevel::kTrace;
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return std::nullopt;
}

Logger::~Logger() { CloseJsonlSink(); }

void Logger::SetTextSink(std::FILE* sink) {
  const std::lock_guard<std::mutex> lock(mutex_);
  text_sink_ = sink;
}

bool Logger::OpenJsonlSink(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (jsonl_sink_ != nullptr) std::fclose(jsonl_sink_);
  jsonl_sink_ = file;
  return true;
}

void Logger::CloseJsonlSink() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (jsonl_sink_ != nullptr) std::fclose(jsonl_sink_);
  jsonl_sink_ = nullptr;
}

void Logger::SetPreTextHook(std::function<void()> hook) {
  const std::lock_guard<std::mutex> lock(mutex_);
  pre_text_hook_ = std::move(hook);
}

void Logger::Log(LogLevel level, std::string_view message,
                 const LogField* fields_begin, const LogField* fields_end) {
  const std::span<const LogField> fields(fields_begin, fields_end);
  if (!ShouldLog(level) || level == LogLevel::kOff) return;
  const Stamp stamp = Now();

  // Both lines are rendered outside the lock; only the writes serialize.
  std::string text;
  std::string jsonl;
  {
    // "[10:11:12.345 WARN ] message key=value" — the clock-only prefix
    // keeps interactive lines short; the JSONL sink has the full date.
    char prefix[40];
    std::snprintf(prefix, sizeof(prefix), "[%s.%03d %s] ", stamp.iso + 11,
                  stamp.millis, LogLevelName(level));
    text = prefix;
    text.append(message.data(), message.size());
    for (const LogField& field : fields) AppendTextField(&text, field);
    text.push_back('\n');
  }
  {
    char ts[40];
    std::snprintf(ts, sizeof(ts), "%s.%03dZ", stamp.iso, stamp.millis);
    jsonl = "{\"ts\":\"";
    jsonl += ts;
    jsonl += "\",\"level\":\"";
    jsonl += JsonLevelName(level);
    jsonl += "\",\"msg\":";
    base::AppendJsonString(&jsonl, message);
    for (const LogField& field : fields) {
      jsonl += ',';
      base::AppendJsonString(&jsonl, field.key);
      jsonl += ':';
      base::AppendJsonString(&jsonl, field.value);
    }
    jsonl += "}\n";
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  if (text_sink_ != nullptr) {
    if (pre_text_hook_) pre_text_hook_();
    std::fwrite(text.data(), 1, text.size(), text_sink_);
    std::fflush(text_sink_);
  }
  if (jsonl_sink_ != nullptr) {
    // Flushed per line so `tail -f run.log.jsonl` follows a live run.
    std::fwrite(jsonl.data(), 1, jsonl.size(), jsonl_sink_);
    std::fflush(jsonl_sink_);
  }
  lines_.fetch_add(1, std::memory_order_relaxed);
}

Logger& DefaultLogger() {
  static Logger* logger = new Logger();  // Leaked: outlives all users.
  return *logger;
}

}  // namespace tfb::obs
