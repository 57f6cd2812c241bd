#include "tfb/pipeline/journal.h"

#include <fstream>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "tfb/base/io.h"
#include "tfb/base/json.h"
#include "tfb/obs/log.h"
#include "tfb/obs/metrics.h"
#include "tfb/pipeline/config.h"

namespace tfb::pipeline {

std::string JournalLine(const ResultRow& row) {
  std::string out = "{\"dataset\":";
  base::AppendJsonString(&out, row.dataset);
  out += ",\"method\":";
  base::AppendJsonString(&out, row.method);
  out += ",\"horizon\":" + std::to_string(row.horizon);
  out += ",\"ok\":";
  out += row.ok ? "true" : "false";
  out += ",\"error\":";
  base::AppendJsonString(&out, row.error);
  out += ",\"selected_config\":";
  base::AppendJsonString(&out, row.selected_config);
  out += ",\"used_fallback\":";
  out += row.used_fallback ? "true" : "false";
  out += ",\"note\":";
  base::AppendJsonString(&out, row.note);
  out += ",\"attempts\":" + std::to_string(row.attempts);
  out += ",\"num_windows\":" + std::to_string(row.num_windows);
  out += ",\"fit_seconds\":";
  base::AppendJsonDouble(&out, row.fit_seconds);
  out += ",\"inference_ms_per_window\":";
  base::AppendJsonDouble(&out, row.inference_ms_per_window);
  out += ",\"cpu_user_seconds\":";
  base::AppendJsonDouble(&out, row.cpu_user_seconds);
  out += ",\"cpu_sys_seconds\":";
  base::AppendJsonDouble(&out, row.cpu_sys_seconds);
  out += ",\"peak_rss_mb\":";
  base::AppendJsonDouble(&out, row.peak_rss_mb);
  // Only present on rows that carry one (failed sandboxed tasks): the
  // common all-ok journal stays byte-for-byte what it was before this field
  // existed, and older readers tolerate the extra key anyway.
  if (!row.stderr_tail.empty()) {
    out += ",\"stderr_tail\":";
    base::AppendJsonString(&out, row.stderr_tail);
  }
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [metric, value] : row.metrics) {
    if (!first) out += ",";
    first = false;
    base::AppendJsonString(&out, eval::MetricName(metric));
    out += ":";
    base::AppendJsonDouble(&out, value);
  }
  out += "}}";
  return out;
}

bool AppendJournal(const std::string& path, const ResultRow& row,
                   const JournalOptions& options) {
  // O_RDWR (not O_WRONLY): the torn-fragment probe below needs to pread the
  // last byte; writes still go through O_APPEND positioning.
  const int fd = open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                      0644);
  if (fd < 0) return false;
  // The flock is belt-and-braces on top of O_APPEND atomicity: it also
  // covers the (filesystem-dependent) case of a single line larger than the
  // kernel's atomic-append granularity, and serializes the fsync.
  flock(fd, LOCK_EX);
  std::string line = JournalLine(row) + '\n';
  // A writer killed mid-append leaves the file without a trailing newline;
  // terminating that torn fragment first keeps this row on its own line
  // instead of merging with (and corrupting alongside) the fragment.
  struct stat st;
  if (fstat(fd, &st) == 0 && st.st_size > 0) {
    char last = '\n';
    if (pread(fd, &last, 1, st.st_size - 1) == 1 && last != '\n') {
      line.insert(line.begin(), '\n');
    }
  }
  bool ok = base::WriteAll(fd, line);
  if (ok && options.fsync_each_row && fsync(fd) != 0) ok = false;
  flock(fd, LOCK_UN);
  close(fd);
  return ok;
}

namespace {

bool ReadString(const base::JsonValue& value, std::string* out) {
  if (!value.is_string()) return false;
  *out = value.string;
  return true;
}

bool ReadBool(const base::JsonValue& value, bool* out) {
  if (value.kind != base::JsonValue::Kind::kBool) return false;
  *out = value.boolean;
  return true;
}

bool ReadMetrics(const base::JsonValue& value,
                 std::map<eval::Metric, double>* metrics) {
  if (!value.is_object()) return false;
  for (const auto& [name, number] : value.object) {
    if (!number.is_number()) return false;
    // Unknown metric names are tolerated (a newer journal read by older
    // code should not fail the whole resume).
    if (const auto metric = MetricFromName(name)) {
      (*metrics)[*metric] = number.number;
    }
  }
  return true;
}

}  // namespace

bool ParseJournalLine(const std::string& line, ResultRow* row) {
  base::JsonValue doc;
  if (!base::ParseJson(line, &doc).ok() || !doc.is_object()) return false;
  for (const auto& [key, value] : doc.object) {
    bool parsed;
    if (key == "dataset") {
      parsed = ReadString(value, &row->dataset);
    } else if (key == "method") {
      parsed = ReadString(value, &row->method);
    } else if (key == "error") {
      parsed = ReadString(value, &row->error);
    } else if (key == "selected_config") {
      parsed = ReadString(value, &row->selected_config);
    } else if (key == "note") {
      parsed = ReadString(value, &row->note);
    } else if (key == "stderr_tail") {
      parsed = ReadString(value, &row->stderr_tail);
    } else if (key == "ok") {
      parsed = ReadBool(value, &row->ok);
    } else if (key == "used_fallback") {
      parsed = ReadBool(value, &row->used_fallback);
    } else if (key == "metrics") {
      parsed = ReadMetrics(value, &row->metrics);
    } else {
      if (!value.is_number()) return false;
      parsed = true;
      const double v = value.number;
      if (key == "horizon") {
        row->horizon = static_cast<std::size_t>(v);
      } else if (key == "attempts") {
        row->attempts = static_cast<std::size_t>(v);
      } else if (key == "num_windows") {
        row->num_windows = static_cast<std::size_t>(v);
      } else if (key == "fit_seconds") {
        row->fit_seconds = v;
      } else if (key == "inference_ms_per_window") {
        row->inference_ms_per_window = v;
      } else if (key == "cpu_user_seconds") {
        row->cpu_user_seconds = v;
      } else if (key == "cpu_sys_seconds") {
        row->cpu_sys_seconds = v;
      } else if (key == "peak_rss_mb") {
        row->peak_rss_mb = v;
      }  // Unknown numeric keys are tolerated for forward compatibility.
    }
    if (!parsed) return false;
  }
  return true;
}

std::vector<ResultRow> LoadJournal(const std::string& path,
                                   std::size_t* skipped) {
  if (skipped != nullptr) *skipped = 0;
  std::vector<ResultRow> rows;
  std::ifstream is(path);
  if (!is) return rows;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ResultRow row;
    if (ParseJournalLine(line, &row)) {
      rows.push_back(std::move(row));
    } else if (skipped != nullptr) {
      ++*skipped;
    }
  }
  return rows;
}

namespace {

// The resume identity of a task or row: "dataset\x1fmethod\x1fhorizon".
template <typename Cell>
std::string JournalKey(const Cell& cell) {
  return cell.dataset + '\x1f' + cell.method + '\x1f' +
         std::to_string(cell.horizon);
}

}  // namespace

JournalIndex JournalIndex::Load(const std::string& journal_path,
                               std::size_t* skipped) {
  JournalIndex index;
  index.journal_path_ = journal_path;
  for (ResultRow& row : LoadJournal(journal_path, skipped)) {
    std::string key = JournalKey(row);
    index.rows_[std::move(key)] = std::move(row);  // Later lines win.
  }
  return index;
}

const ResultRow* JournalIndex::Find(const BenchmarkTask& task) const {
  const auto it = rows_.find(JournalKey(task));
  return it != rows_.end() ? &it->second : nullptr;
}

std::size_t JournalIndex::Adopt(const std::vector<BenchmarkTask>& tasks,
                                bool verbose, std::vector<ResultRow>* rows,
                                std::vector<bool>* adopted) const {
  std::size_t resumed = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (const ResultRow* row = Find(tasks[i])) {
      (*rows)[i] = *row;
      (*adopted)[i] = true;
      ++resumed;
    }
  }
  obs::DefaultLogger().Log(
      verbose ? obs::LogLevel::kInfo : obs::LogLevel::kDebug,
      "resume: adopted journaled rows",
      {{"loaded", std::to_string(resumed)},
       {"total", std::to_string(tasks.size())},
       {"journal", journal_path_}});
  if (obs::Enabled() && resumed > 0) {
    obs::DefaultRegistry()
        .GetCounter("tfb_tasks_resumed_total")
        .Increment(static_cast<double>(resumed));
  }
  return resumed;
}

}  // namespace tfb::pipeline
