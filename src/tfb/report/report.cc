#include "tfb/report/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>

#include "tfb/base/status.h"

namespace tfb::report {

void PrintTable(std::ostream& os,
                const std::vector<pipeline::ResultRow>& rows,
                const std::vector<eval::Metric>& metrics) {
  os << std::left << std::setw(14) << "dataset" << std::setw(18) << "method"
     << std::setw(6) << "h";
  for (eval::Metric m : metrics) {
    os << std::setw(10) << eval::MetricName(m);
  }
  os << std::setw(8) << "windows" << '\n';
  for (const pipeline::ResultRow& row : rows) {
    os << std::left << std::setw(14) << row.dataset << std::setw(18)
       << row.method << std::setw(6) << row.horizon;
    for (eval::Metric m : metrics) {
      const auto it = row.metrics.find(m);
      // Failed cells render "-" (the paper's Tables 7–8 convention) even if
      // stale metric values are attached to the row.
      if (!row.ok || it == row.metrics.end() ||
          !std::isfinite(it->second)) {
        os << std::setw(10) << "-";
      } else {
        os << std::setw(10) << std::setprecision(4) << it->second;
      }
    }
    os << std::setw(8) << row.num_windows;
    if (!row.ok) os << "  ERROR: " << row.error;
    os << '\n';
  }
  PrintFailureSummary(os, rows);
}

namespace {

/// The failure class of a row: the status-code prefix of its "CODE: message"
/// error (CRASHED, RESOURCE_EXHAUSTED, DEADLINE_EXCEEDED, ...), or "OTHER"
/// for free-form errors. This is the process-level failure taxonomy of the
/// sandbox (`tfb::proc`) surfaced to the report reader.
std::string FailureClass(const pipeline::ResultRow& row) {
  const std::size_t colon = row.error.find(':');
  if (colon != std::string::npos) {
    const std::string prefix = row.error.substr(0, colon);
    if (tfb::base::StatusCodeFromName(prefix)) return prefix;
  }
  return "OTHER";
}

}  // namespace

void PrintFailureSummary(std::ostream& os,
                         const std::vector<pipeline::ResultRow>& rows) {
  std::size_t failed = 0;
  std::size_t fallbacks = 0;
  for (const pipeline::ResultRow& row : rows) {
    if (!row.ok) ++failed;
    if (row.used_fallback) ++fallbacks;
  }
  if (failed == 0 && fallbacks == 0) return;
  os << '\n'
     << "failures: " << failed << " of " << rows.size() << " tasks failed";
  if (fallbacks > 0) {
    os << ", " << fallbacks << " completed via the fallback forecaster";
  }
  os << '\n';
  // Group the affected cells by failure class so a reader can tell one
  // crashing method from thirty timeouts at a glance; classes print in
  // first-appearance order, fallback-rescued rows last under their own
  // heading.
  std::vector<std::string> classes;
  std::map<std::string, std::vector<const pipeline::ResultRow*>> by_class;
  std::vector<const pipeline::ResultRow*> rescued;
  for (const pipeline::ResultRow& row : rows) {
    if (row.ok && !row.used_fallback) continue;
    if (row.ok) {
      rescued.push_back(&row);
      continue;
    }
    const std::string cls = FailureClass(row);
    if (by_class.find(cls) == by_class.end()) classes.push_back(cls);
    by_class[cls].push_back(&row);
  }
  for (const std::string& cls : classes) {
    const auto& members = by_class[cls];
    os << "  " << cls << " (" << members.size() << "):\n";
    for (const pipeline::ResultRow* row : members) {
      os << "    " << row->dataset << " / " << row->method << " / h="
         << row->horizon << ": " << row->error << '\n';
      // Crash diagnostics captured from the sandboxed child's stderr
      // (--isolate=process): its last words, indented under the cell.
      if (!row->stderr_tail.empty()) {
        std::istringstream tail(row->stderr_tail);
        std::string line;
        while (std::getline(tail, line)) {
          os << "      stderr| " << line << '\n';
        }
      }
    }
  }
  if (!rescued.empty()) {
    os << "  completed via fallback (" << rescued.size() << "):\n";
    for (const pipeline::ResultRow* row : rescued) {
      os << "    " << row->dataset << " / " << row->method << " / h="
         << row->horizon << ": fallback (" << row->error << ")\n";
    }
  }
}

void PrintPerfSummary(std::ostream& os,
                      const std::vector<pipeline::ResultRow>& rows) {
  if (rows.empty()) return;
  struct MethodPerf {
    std::size_t tasks = 0;
    std::size_t windows = 0;
    double fit_seconds = 0.0;
    double infer_ms_sum = 0.0;   ///< Sum of per-row ms/window for the mean.
    std::size_t infer_rows = 0;  ///< Rows contributing to infer_ms_sum.
    double cpu_seconds = 0.0;
    double peak_rss_mb = 0.0;    ///< Max across tasks; 0 = unknown.
  };
  std::vector<std::string> order;
  std::map<std::string, MethodPerf> by_method;
  for (const pipeline::ResultRow& row : rows) {
    if (by_method.find(row.method) == by_method.end()) {
      order.push_back(row.method);
    }
    MethodPerf& perf = by_method[row.method];
    ++perf.tasks;
    perf.windows += row.num_windows;
    perf.fit_seconds += row.fit_seconds;
    if (row.num_windows > 0) {
      perf.infer_ms_sum += row.inference_ms_per_window;
      ++perf.infer_rows;
    }
    perf.cpu_seconds += row.cpu_user_seconds + row.cpu_sys_seconds;
    perf.peak_rss_mb = std::max(perf.peak_rss_mb, row.peak_rss_mb);
  }
  os << '\n'
     << "performance summary (fit/infer wall time; CPU and peak RSS from "
        "resource accounting)\n";
  os << std::left << std::setw(18) << "method" << std::right << std::setw(7)
     << "tasks" << std::setw(9) << "windows" << std::setw(11) << "fit_s"
     << std::setw(13) << "infer_ms/w" << std::setw(10) << "cpu_s"
     << std::setw(13) << "peak_rss_mb" << '\n';
  const auto print_line = [&os](const std::string& name,
                                const MethodPerf& perf) {
    char fit[32], infer[32], cpu[32];
    std::snprintf(fit, sizeof(fit), "%.3f", perf.fit_seconds);
    std::snprintf(infer, sizeof(infer), "%.3f",
                  perf.infer_rows > 0
                      ? perf.infer_ms_sum /
                            static_cast<double>(perf.infer_rows)
                      : 0.0);
    std::snprintf(cpu, sizeof(cpu), "%.3f", perf.cpu_seconds);
    os << std::left << std::setw(18) << name << std::right << std::setw(7)
       << perf.tasks << std::setw(9) << perf.windows << std::setw(11) << fit
       << std::setw(13) << infer << std::setw(10) << cpu;
    if (perf.peak_rss_mb > 0.0) {
      char rss[32];
      std::snprintf(rss, sizeof(rss), "%.1f", perf.peak_rss_mb);
      os << std::setw(13) << rss;
    } else {
      os << std::setw(13) << "-";
    }
    os << '\n';
  };
  MethodPerf total;
  for (const std::string& method : order) {
    const MethodPerf& perf = by_method[method];
    print_line(method, perf);
    total.tasks += perf.tasks;
    total.windows += perf.windows;
    total.fit_seconds += perf.fit_seconds;
    total.infer_ms_sum += perf.infer_ms_sum;
    total.infer_rows += perf.infer_rows;
    total.cpu_seconds += perf.cpu_seconds;
    total.peak_rss_mb = std::max(total.peak_rss_mb, perf.peak_rss_mb);
  }
  print_line("TOTAL", total);
}

void PrintPivot(std::ostream& os,
                const std::vector<pipeline::ResultRow>& rows,
                eval::Metric metric) {
  // Collect unique (dataset, horizon) rows and method columns in
  // first-appearance order.
  std::vector<std::pair<std::string, std::size_t>> cells;
  std::vector<std::string> methods;
  for (const auto& row : rows) {
    const auto cell = std::make_pair(row.dataset, row.horizon);
    if (std::find(cells.begin(), cells.end(), cell) == cells.end()) {
      cells.push_back(cell);
    }
    if (std::find(methods.begin(), methods.end(), row.method) ==
        methods.end()) {
      methods.push_back(row.method);
    }
  }
  os << std::left << std::setw(18) << "dataset/h";
  for (const std::string& m : methods) os << std::setw(16) << m;
  os << '\n';
  for (const auto& cell : cells) {
    os << std::left << std::setw(18)
       << (cell.first + "/" + std::to_string(cell.second));
    for (const std::string& m : methods) {
      double value = std::numeric_limits<double>::quiet_NaN();
      for (const auto& row : rows) {
        if (row.dataset == cell.first && row.horizon == cell.second &&
            row.method == m) {
          const auto it = row.metrics.find(metric);
          if (row.ok && it != row.metrics.end()) value = it->second;
          break;
        }
      }
      if (std::isfinite(value)) {
        std::ostringstream tmp;
        tmp << std::setprecision(4) << value;
        os << std::setw(16) << tmp.str();
      } else {
        // Failed or absent cell: "-" as in the paper's Tables 7–8.
        os << std::setw(16) << "-";
      }
    }
    os << '\n';
  }
}

bool WriteCsv(const std::string& path,
              const std::vector<pipeline::ResultRow>& rows,
              const std::vector<eval::Metric>& metrics) {
  std::ofstream os(path);
  if (!os) return false;
  os << "dataset,method,horizon";
  for (eval::Metric m : metrics) os << ',' << eval::MetricName(m);
  os << ",windows,fit_seconds,inference_ms,cpu_user_seconds,cpu_sys_seconds,"
        "peak_rss_mb,selected_config,ok,fallback,error\n";
  os.precision(8);
  // Error/note text may contain commas; keep the CSV single-token per cell.
  const auto sanitize = [](std::string s) {
    for (char& c : s) {
      if (c == ',' || c == '\n' || c == '\r') c = ';';
    }
    return s;
  };
  for (const pipeline::ResultRow& row : rows) {
    os << row.dataset << ',' << row.method << ',' << row.horizon;
    for (eval::Metric m : metrics) {
      const auto it = row.metrics.find(m);
      os << ',';
      // Failed cells stay empty rather than exporting stale values.
      if (row.ok && it != row.metrics.end()) os << it->second;
    }
    os << ',' << row.num_windows << ',' << row.fit_seconds << ','
       << row.inference_ms_per_window << ',' << row.cpu_user_seconds << ','
       << row.cpu_sys_seconds << ',' << row.peak_rss_mb << ','
       << row.selected_config << ','
       << (row.ok ? "true" : "false") << ','
       << (row.used_fallback ? "true" : "false") << ','
       << sanitize(row.error) << '\n';
  }
  return static_cast<bool>(os);
}

std::map<std::string, std::size_t> CountWins(
    const std::vector<pipeline::ResultRow>& rows, eval::Metric metric) {
  std::map<std::string, std::size_t> wins;
  std::set<std::pair<std::string, std::size_t>> cells;
  for (const auto& row : rows) cells.insert({row.dataset, row.horizon});
  for (const auto& cell : cells) {
    double best = std::numeric_limits<double>::infinity();
    std::string best_method;
    for (const auto& row : rows) {
      if (row.dataset != cell.first || row.horizon != cell.second || !row.ok) {
        continue;
      }
      const auto it = row.metrics.find(metric);
      if (it == row.metrics.end()) continue;
      if (it->second < best) {
        best = it->second;
        best_method = row.method;
      }
    }
    if (!best_method.empty()) ++wins[best_method];
  }
  return wins;
}

}  // namespace tfb::report
