// Tests for the live-telemetry layer of tfb/obs: the structured leveled
// logger (text + JSONL sinks, JSON escaping) and the run progress tracker
// (counts, EWMA-based ETA, /status JSON payload).

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tfb/base/json.h"
#include "tfb/obs/log.h"
#include "tfb/obs/progress.h"

namespace tfb::obs {
namespace {

/// Minimal recursive-descent JSON validator (mirrors the checker in
/// obs_test.cc): accepts exactly one complete JSON value, rejects raw
/// control characters and malformed escapes inside strings.
class JsonChecker {
 public:
  explicit JsonChecker(std::string text) : text_(std::move(text)) {}

  bool Valid() {
    pos_ = 0;
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool String() {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return false;  // Raw control byte: invalid JSON.
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // Unterminated.
  }
  bool Number() {
    SkipWs();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Object() {
    if (!Eat('{')) return false;
    if (Eat('}')) return true;
    do {
      if (!String() || !Eat(':') || !Value()) return false;
    } while (Eat(','));
    return Eat('}');
  }
  bool Array() {
    if (!Eat('[')) return false;
    if (Eat(']')) return true;
    do {
      if (!Value()) return false;
    } while (Eat(','));
    return Eat(']');
  }
  bool Value() {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
};

std::string ReadAll(std::FILE* f) {
  std::string out;
  std::rewind(f);
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  return out;
}

std::string ReadFile(const std::string& path) {
  std::stringstream ss;
  ss << std::ifstream(path).rdbuf();
  return ss.str();
}

TEST(LogLevelTest, ParseAcceptsAliasesCaseInsensitively) {
  EXPECT_EQ(ParseLogLevel("trace"), LogLevel::kTrace);
  EXPECT_EQ(ParseLogLevel("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("Info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("Warning"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("none"), LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("verbose").has_value());
  EXPECT_FALSE(ParseLogLevel("").has_value());
}

TEST(LogLevelTest, NamesAreFixedWidthForAlignment) {
  // The text sink pads with the level name; INFO/WARN carry a trailing
  // space so columns line up.
  EXPECT_STREQ(LogLevelName(LogLevel::kTrace), "TRACE");
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "INFO ");
  EXPECT_STREQ(LogLevelName(LogLevel::kWarn), "WARN ");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "ERROR");
}

TEST(LoggerTest, LevelFilterSuppressesBelowThreshold) {
  Logger logger;
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  logger.SetTextSink(sink);
  logger.SetLevel(LogLevel::kWarn);
  EXPECT_FALSE(logger.ShouldLog(LogLevel::kDebug));
  EXPECT_FALSE(logger.ShouldLog(LogLevel::kInfo));
  EXPECT_TRUE(logger.ShouldLog(LogLevel::kWarn));
  EXPECT_TRUE(logger.ShouldLog(LogLevel::kError));

  logger.Debug("dropped");
  logger.Info("dropped too");
  logger.Warn("kept");
  logger.Error("kept too");
  EXPECT_EQ(logger.lines_logged(), 2u);

  logger.SetLevel(LogLevel::kOff);
  logger.Error("everything filtered at kOff");
  EXPECT_EQ(logger.lines_logged(), 2u);

  const std::string text = ReadAll(sink);
  EXPECT_EQ(text.find("dropped"), std::string::npos);
  EXPECT_NE(text.find("kept"), std::string::npos);
  std::fclose(sink);
}

TEST(LoggerTest, TextLineFormatAndFieldQuoting) {
  Logger logger;
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  logger.SetTextSink(sink);
  logger.Info("task done", {{"dataset", "ETTh2"},
                            {"note", "has spaces"},
                            {"path", "plain/path.jsonl"}});
  const std::string text = ReadAll(sink);
  std::fclose(sink);

  // `[HH:MM:SS.mmm INFO ] task done key=value ...`
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(text.back(), '\n');
  EXPECT_NE(text.find(" INFO ] task done"), std::string::npos) << text;
  EXPECT_NE(text.find("dataset=ETTh2"), std::string::npos) << text;
  // Values with spaces are quoted; plain values are not.
  EXPECT_NE(text.find("note=\"has spaces\""), std::string::npos) << text;
  EXPECT_NE(text.find("path=plain/path.jsonl"), std::string::npos) << text;
}

TEST(LoggerTest, PreTextHookRunsBeforeEachTextLine) {
  Logger logger;
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  logger.SetTextSink(sink);
  int hook_calls = 0;
  logger.SetPreTextHook([&hook_calls] { ++hook_calls; });
  logger.Info("one");
  logger.Debug("filtered: hook must not fire");
  logger.Warn("two");
  EXPECT_EQ(hook_calls, 2);
  logger.SetPreTextHook(nullptr);
  logger.Info("three");
  EXPECT_EQ(hook_calls, 2);
  std::fclose(sink);
}

TEST(LoggerTest, JsonlSinkEmitsValidJsonPerLine) {
  const std::string path = ::testing::TempDir() + "/obs_log_test.jsonl";
  std::remove(path.c_str());
  {
    Logger logger;
    logger.SetTextSink(nullptr);  // JSONL only.
    ASSERT_TRUE(logger.OpenJsonlSink(path));
    logger.Info("plain message", {{"k", "v"}});
    // Hostile payloads: quotes, backslashes, control chars, UTF-8.
    logger.Warn("quote \" backslash \\ newline \n bell \x07 end",
                {{"field", "ctrl\x01\x1f"}, {"unicode", "caf\xc3\xa9"}});
    logger.CloseJsonlSink();
  }
  const std::string content = ReadFile(path);
  std::remove(path.c_str());

  std::vector<std::string> lines;
  std::istringstream is(content);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u) << content;
  for (const std::string& line : lines) {
    EXPECT_TRUE(JsonChecker(line).Valid()) << line;
    EXPECT_NE(line.find("\"ts\""), std::string::npos);
    EXPECT_NE(line.find("\"level\""), std::string::npos);
    EXPECT_NE(line.find("\"msg\""), std::string::npos);
  }
  EXPECT_NE(lines[0].find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"level\":\"warn\""), std::string::npos);
  // Control bytes become \uXXXX (or the short escapes); UTF-8 passes.
  EXPECT_EQ(lines[1].find('\x07'), std::string::npos);
  EXPECT_NE(lines[1].find("\\u0007"), std::string::npos);
  EXPECT_NE(lines[1].find("\\u0001"), std::string::npos);
  EXPECT_NE(lines[1].find("\\n"), std::string::npos);
  EXPECT_NE(lines[1].find("caf\xc3\xa9"), std::string::npos);
}

TEST(LoggerTest, AppendJsonStringEscapesExactly) {
  std::string out;
  base::AppendJsonString(&out, "a\"b\\c\nd\te\x01 caf\xc3\xa9");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001 caf\xc3\xa9\"");
  EXPECT_TRUE(JsonChecker(out).Valid()) << out;
}

TEST(LoggerTest, ConcurrentWritersNeverInterleaveLines) {
  Logger logger;
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  logger.SetTextSink(sink);
  constexpr int kThreads = 4;
  constexpr int kLines = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&logger, t] {
      for (int i = 0; i < kLines; ++i) {
        logger.Info("concurrent line",
                    {{"thread", std::to_string(t)}, {"marker", "ENDMARK"}});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(logger.lines_logged(),
            static_cast<std::uint64_t>(kThreads * kLines));

  const std::string text = ReadAll(sink);
  std::fclose(sink);
  std::istringstream is(text);
  std::size_t count = 0;
  for (std::string line; std::getline(is, line); ++count) {
    // Every line is complete: starts with the timestamp bracket and
    // carries exactly one end marker.
    EXPECT_EQ(line.front(), '[') << line;
    EXPECT_NE(line.find("marker=ENDMARK"), std::string::npos) << line;
    EXPECT_EQ(line.find("marker=ENDMARK"), line.rfind("marker=ENDMARK"));
  }
  EXPECT_EQ(count, static_cast<std::size_t>(kThreads * kLines));
}

TEST(ProgressModeTest, ParseAndName) {
  EXPECT_EQ(ParseProgressMode("auto"), ProgressMode::kAuto);
  EXPECT_EQ(ParseProgressMode("BAR"), ProgressMode::kBar);
  EXPECT_EQ(ParseProgressMode("Plain"), ProgressMode::kPlain);
  EXPECT_EQ(ParseProgressMode("off"), ProgressMode::kOff);
  EXPECT_FALSE(ParseProgressMode("fancy").has_value());
  EXPECT_STREQ(ProgressModeName(ProgressMode::kAuto), "auto");
  EXPECT_STREQ(ProgressModeName(ProgressMode::kOff), "off");
}

TEST(ProgressTrackerTest, CountsQueueDepthAndEtaSemantics) {
  ProgressTracker tracker;
  tracker.SetDisplay(ProgressMode::kOff);
  tracker.BeginRun(/*total=*/10, /*resumed=*/2);

  ProgressSnapshot snap = tracker.Snapshot();
  EXPECT_TRUE(snap.active);
  EXPECT_EQ(snap.total, 10u);
  EXPECT_EQ(snap.resumed, 2u);
  EXPECT_EQ(snap.completed, 0u);
  EXPECT_EQ(snap.in_flight, 0u);
  EXPECT_EQ(snap.queued, 8u);
  // No completion yet: the ETA is unknown, not zero.
  EXPECT_DOUBLE_EQ(snap.eta_seconds, -1.0);

  tracker.TaskStarted();
  tracker.TaskStarted();
  snap = tracker.Snapshot();
  EXPECT_EQ(snap.in_flight, 2u);
  EXPECT_EQ(snap.queued, 6u);

  tracker.TaskFinished("VAR", /*ok=*/true, /*used_fallback=*/false, 0.02);
  snap = tracker.Snapshot();
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.in_flight, 1u);
  EXPECT_EQ(snap.failed, 0u);
  // One completion observed: finite, non-negative estimate for the 7 left.
  EXPECT_GE(snap.eta_seconds, 0.0);
  EXPECT_LT(snap.eta_seconds, 3600.0);
  EXPECT_GT(snap.ewma_task_seconds, 0.0);

  tracker.TaskFinished("Theta", /*ok=*/false, /*used_fallback=*/false, 0.01);
  tracker.TaskStarted();
  tracker.TaskFinished("VAR", /*ok=*/true, /*used_fallback=*/true, 0.01);
  snap = tracker.Snapshot();
  EXPECT_EQ(snap.completed, 3u);
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_EQ(snap.fallback, 1u);

  const auto tallies = tracker.MethodTallies();
  ASSERT_EQ(tallies.count("VAR"), 1u);
  EXPECT_EQ(tallies.at("VAR").completed, 2u);
  EXPECT_EQ(tallies.at("VAR").fallback, 1u);
  EXPECT_EQ(tallies.at("Theta").failed, 1u);

  // Drain the rest: ETA collapses to 0 once nothing remains.
  for (int i = 0; i < 5; ++i) {
    tracker.TaskStarted();
    tracker.TaskFinished("VAR", true, false, 0.001);
  }
  snap = tracker.Snapshot();
  EXPECT_EQ(snap.completed, 8u);
  EXPECT_EQ(snap.queued, 0u);
  EXPECT_DOUBLE_EQ(snap.eta_seconds, 0.0);

  tracker.EndRun();
  snap = tracker.Snapshot();
  EXPECT_FALSE(snap.active);
  EXPECT_EQ(snap.completed, 8u);  // Tallies survive EndRun for reporting.
}

TEST(ProgressTrackerTest, StatusJsonIsValidAndCarriesRunId) {
  ProgressTracker tracker;
  tracker.SetDisplay(ProgressMode::kOff);
  tracker.BeginRun(4, 0);
  tracker.TaskStarted();
  tracker.TaskFinished("NLinear", true, false, 0.005);

  const std::string json = tracker.StatusJson("tfb-20260806T000000-1");
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"run_id\":\"tfb-20260806T000000-1\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"total\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"completed\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"NLinear\""), std::string::npos) << json;
  tracker.EndRun();

  // A hostile run id must not break the payload.
  tracker.BeginRun(1, 0);
  const std::string hostile = tracker.StatusJson("id\"with\\quotes\n");
  EXPECT_TRUE(JsonChecker(hostile).Valid()) << hostile;
  tracker.EndRun();
}

TEST(ProgressTrackerTest, ConcurrentFeedersStayConsistent) {
  ProgressTracker tracker;
  tracker.SetDisplay(ProgressMode::kOff);
  constexpr int kThreads = 4;
  constexpr int kTasks = 25;
  tracker.BeginRun(kThreads * kTasks, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker, t] {
      for (int i = 0; i < kTasks; ++i) {
        tracker.TaskStarted();
        tracker.TaskFinished("M" + std::to_string(t), i % 7 != 0, false,
                             0.001);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const ProgressSnapshot snap = tracker.Snapshot();
  EXPECT_EQ(snap.completed, static_cast<std::size_t>(kThreads * kTasks));
  EXPECT_EQ(snap.in_flight, 0u);
  EXPECT_EQ(snap.queued, 0u);
  EXPECT_DOUBLE_EQ(snap.eta_seconds, 0.0);
  tracker.EndRun();
}

}  // namespace
}  // namespace tfb::obs
