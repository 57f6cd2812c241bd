#ifndef TFB_PIPELINE_JOURNAL_H_
#define TFB_PIPELINE_JOURNAL_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "tfb/pipeline/runner.h"

namespace tfb::pipeline {

/// JSONL run journal: one self-contained JSON object per completed result
/// row, appended (and flushed) as each task finishes. An interrupted
/// multi-hour grid can then be resumed: with `resume=true`, every task that
/// `JournalIndex` answers adopts that row, whether it succeeded or failed
/// (both are *finished* outcomes; delete the journal to force a full
/// re-run), and only the rest execute.
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

/// Dedups rows on their (dataset, method, horizon) key, first occurrence
/// wins ("first completed wins": a task re-executed after a worker death
/// produces a duplicate row in a later segment; the earliest complete row
/// is authoritative). Order of first occurrences is preserved.
std::vector<ResultRow> DedupJournalRows(std::vector<ResultRow> rows);

/// Loads and merges the per-worker segments of one sharded run, in dispatch
/// order: every well-formed line of every existing file, deduped first-wins
/// in `paths` order. Missing files are empty segments; torn trailing lines
/// (a worker killed mid-append) are skipped by the line parser like any
/// malformed line. When `skipped` is non-null it receives the total number
/// of skipped lines across files.
std::vector<ResultRow> LoadJournalSegments(const std::vector<std::string>& paths,
                                           std::size_t* skipped = nullptr);

/// The one resume rule: which journaled row answers a task. Rows are keyed
/// by (dataset, method, horizon), and the newest row for a key wins:
///  - in the main journal, read in file order, a later line supersedes an
///    earlier one (the runner appends, so the last line is the newest);
///  - within one run's segments, the first completed row wins
///    (`LoadJournalSegments`);
///  - segment rows supersede main-journal rows: they were written by a
///    later run that stopped before merging them.
/// `BenchmarkRunner` and `ShardCoordinator` both resume through it, so a
/// resume adopts the same rows whatever the executor.
class JournalIndex {
 public:
  /// Indexes the journal at `journal_path` (none when empty; a missing file
  /// is an empty journal), then one run's `segment_paths` on top of it.
  /// When `skipped` is non-null it receives the number of malformed lines.
  static JournalIndex Load(const std::string& journal_path,
                           const std::vector<std::string>& segment_paths = {},
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

  /// Indexed rows whose key no task in `tasks` has, in index order.
  std::vector<ResultRow> OutsideGrid(
      const std::vector<BenchmarkTask>& tasks) const;

  /// One row per key, each at the position where its key first appeared.
  const std::vector<ResultRow>& rows() const { return rows_; }

 private:
  void Supersede(ResultRow row);

  std::string journal_path_;
  std::vector<ResultRow> rows_;
  std::unordered_map<std::string, std::size_t> slot_;  // Key -> rows_ index.
};

/// Atomically replaces the journal at `path` with exactly `rows` (one line
/// each, in order): written to a temporary sibling, optionally fsync()ed,
/// then rename()d into place — a crash mid-merge leaves the old journal
/// (and any segments) intact for the next resume. Returns false on I/O
/// failure.
bool RewriteJournal(const std::string& path,
                    const std::vector<ResultRow>& rows, bool fsync_file);

}  // namespace tfb::pipeline

#endif  // TFB_PIPELINE_JOURNAL_H_
