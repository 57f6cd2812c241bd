#ifndef TFB_PIPELINE_JOURNAL_H_
#define TFB_PIPELINE_JOURNAL_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "tfb/pipeline/runner.h"

namespace tfb::pipeline {

/// JSONL run journal: one self-contained JSON object per completed result
/// row, appended (and flushed) as each task finishes — by the runner, or by
/// the shard coordinator for each row a worker sends back. Nothing else
/// ever writes it: no executor rewrites, reorders or truncates the file, so
/// lines are in completion order and an interrupted run loses no earlier
/// line. An interrupted multi-hour grid can then be resumed: with
/// `resume=true`, every task that `JournalIndex` answers adopts that row,
/// whether it succeeded or failed (both are *finished* outcomes; delete the
/// journal to force a full re-run), and only the rest execute.
///
/// Line format (metric keys are eval::MetricName spellings):
///   {"dataset":"ILI","method":"VAR","horizon":12,"ok":true,"error":"",
///    "selected_config":"VAR","used_fallback":false,"note":"",
///    "num_windows":4,"fit_seconds":0.01,"inference_ms_per_window":0.5,
///    "cpu_user_seconds":0.01,"cpu_sys_seconds":0.0,"peak_rss_mb":42.5,
///    "metrics":{"mae":0.51,"mse":0.42}}
/// The cpu_*/peak_rss_mb resource fields (tfb/obs) round-trip so a resumed
/// run keeps the resource accounting of the rows it adopted. Failed rows
/// from sandboxed runs may additionally carry "stderr_tail" (the child's
/// captured stderr last words); it is omitted when empty.

/// Serializes one row as a single JSON line (no trailing newline).
std::string JournalLine(const ResultRow& row);

/// Durability/concurrency knobs for journal appends.
struct JournalOptions {
  /// fsync() the journal after every appended row: a row then survives not
  /// just a process crash but a machine crash, at ~1 write's latency cost.
  bool fsync_each_row = false;
};

/// Appends `row` to the journal at `path`, creating the file if needed.
/// Crash-safe under concurrent writers: the full line (with its trailing
/// newline) goes out as a single write() on an O_APPEND descriptor held
/// under an exclusive flock(), so lines from parallel workers — or from
/// separate tfb_run processes sharing one journal — never interleave. A
/// worker killed mid-append can leave at most one torn final line, which
/// LoadJournal skips. Returns false on I/O failure.
bool AppendJournal(const std::string& path, const ResultRow& row,
                   const JournalOptions& options = {});

/// Parses one journal line back into a row; returns false on malformed
/// input (the resume path skips such lines rather than failing the run).
bool ParseJournalLine(const std::string& line, ResultRow* row);

/// Loads every well-formed row from the journal at `path`. A missing file
/// is an empty journal, not an error. When `skipped` is non-null it
/// receives the number of malformed lines.
std::vector<ResultRow> LoadJournal(const std::string& path,
                                   std::size_t* skipped = nullptr);

/// The one resume rule: which journaled row answers a task. Rows are keyed
/// by (dataset, method, horizon), and a later line supersedes an earlier
/// one: every executor only ever appends, so the last line for a key is
/// the newest. `BenchmarkRunner` and `ShardCoordinator` both resume through
/// it, so a resume adopts the same rows whatever the executor.
class JournalIndex {
 public:
  /// Indexes the journal at `journal_path` (a missing file is an empty
  /// journal). When `skipped` is non-null it receives the number of
  /// malformed lines.
  static JournalIndex Load(const std::string& journal_path,
                           std::size_t* skipped = nullptr);

  /// The row that answers `task`, or nullptr.
  const ResultRow* Find(const BenchmarkTask& task) const;

  /// Resume: copies the row that answers each task into `(*rows)[i]` and
  /// sets `(*adopted)[i]` (both sized like `tasks`), logs "resume: adopted
  /// journaled rows" and counts them in `tfb_tasks_resumed_total`. Returns
  /// the number adopted.
  std::size_t Adopt(const std::vector<BenchmarkTask>& tasks, bool verbose,
                    std::vector<ResultRow>* rows,
                    std::vector<bool>* adopted) const;

 private:
  std::string journal_path_;
  std::unordered_map<std::string, ResultRow> rows_;  // Key -> newest row.
};

}  // namespace tfb::pipeline

#endif  // TFB_PIPELINE_JOURNAL_H_
