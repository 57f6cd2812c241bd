#ifndef TFB_REPORT_REPORT_H_
#define TFB_REPORT_REPORT_H_

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "tfb/pipeline/runner.h"

namespace tfb::report {

/// Prints rows as a fixed-width text table (one line per row, the metric
/// columns in `metrics` order) — the reporting layer's console output.
/// Failed rows render "-" in every metric cell (the Tables 7–8 convention
/// for methods that could not run) followed by the error; when any row
/// failed or used the fallback forecaster, a failure-summary footer with
/// per-run counts is appended.
void PrintTable(std::ostream& os,
                const std::vector<pipeline::ResultRow>& rows,
                const std::vector<eval::Metric>& metrics);

/// The failure-summary footer alone: per-run failed/fallback counts plus
/// one line per affected cell. Prints nothing when every row is healthy.
void PrintFailureSummary(std::ostream& os,
                         const std::vector<pipeline::ResultRow>& rows);

/// Per-run performance summary over the rows' timing and resource
/// accounting (tfb/obs): one line per method — task count, total fit
/// seconds, mean inference ms/window, total CPU seconds (user+sys), and
/// peak RSS across its tasks (process-isolated runs only; "-" otherwise) —
/// plus a totals line. Prints nothing for an empty run.
void PrintPerfSummary(std::ostream& os,
                      const std::vector<pipeline::ResultRow>& rows);

/// Prints a paper-style pivot: datasets x methods with one metric.
/// Rows are (dataset, horizon) pairs in first-appearance order.
void PrintPivot(std::ostream& os,
                const std::vector<pipeline::ResultRow>& rows,
                eval::Metric metric);

/// Writes rows as CSV (dataset,method,horizon,<metric...>,windows,
/// fit_seconds,inference_ms,selected_config).
bool WriteCsv(const std::string& path,
              const std::vector<pipeline::ResultRow>& rows,
              const std::vector<eval::Metric>& metrics);

/// Counts, per method, on how many (dataset, horizon) cells it achieves the
/// best (minimal) value of `metric` — the "Ranks" statistic of Table 6.
std::map<std::string, std::size_t> CountWins(
    const std::vector<pipeline::ResultRow>& rows, eval::Metric metric);

}  // namespace tfb::report

#endif  // TFB_REPORT_REPORT_H_
