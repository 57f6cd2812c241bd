#ifndef TFBBENCH_LEDGER_H_
#define TFBBENCH_LEDGER_H_

// The pure logic of the repository benchmark, free of sockets, clocks and
// files so that ledger_test can pin it down: percentile and quartile math,
// the Server-Timing parser, span self times, the seeded request schedule
// of the serve workload, and the digest of result rows.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tfb/pipeline/runner.h"

namespace tfbbench {

/// q-quantile (q in [0, 1]) by linear interpolation between the closest
/// ranks (rank q * (n - 1)); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// Median and quartiles of a sample, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method),
/// so the ledger's spread figures match any Python re-analysis.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
Quartiles QuartilesOf(std::vector<double> values);

/// Parses a Server-Timing header value (RFC 8673 syntax, e.g.
/// "queue;dur=0.012, linger;dur=1.9") into name -> milliseconds. Entries
/// without a numeric `dur` parameter are skipped.
std::map<std::string, double> ParseServerTiming(std::string_view header);

/// One complete trace span, flattened from obs::TraceEvent.
struct Span {
  std::string name;
  std::int64_t pid = 0;
  std::int64_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::string args;

  double end_us() const { return ts_us + dur_us; }
};

/// Length of the union of [first, second) intervals, clipped to [lo, hi).
double UnionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi);

/// For every span, the index of the innermost span on the same (pid, tid)
/// whose interval contains it, or -1 for a root. Spans that only partly
/// overlap (concurrent shard grants on one coordinator thread) are
/// siblings, not parent and child.
std::vector<long> ParentsOf(const std::vector<Span>& spans);

/// Self time of every span in microseconds: its duration minus the part of
/// its interval that its direct children cover (children may overlap each
/// other; covered time is counted once).
std::vector<double> SelfTimesUs(const std::vector<Span>& spans,
                                const std::vector<long>& parents);

/// Value of `key` in a span's pre-rendered args (`"key":"value",...`);
/// empty when absent.
std::string SpanArg(const Span& span, std::string_view key);

/// The serve workload's request schedule. Models [0, hot) are the hot set,
/// drawn with the given popularity weights; models [hot, hot + cold) are
/// cold: every `cold_every`-th request names one of them, in rotation, so
/// the share of requests that force an LRU reload is fixed by construction.
struct ScheduleOptions {
  std::uint64_t seed = 1;
  std::size_t requests = 0;
  double rate_qps = 100.0;
  std::vector<double> hot_weights;
  std::size_t cold_models = 2;
  std::size_t cold_every = 25;
  std::size_t variants = 4;  ///< Distinct histories per model.
};

struct ScheduledRequest {
  double due_s = 0.0;  ///< Send time, seconds after the phase starts.
  std::size_t model = 0;
  std::size_t variant = 0;
  bool cold = false;
};

std::vector<ScheduledRequest> MakeSchedule(const ScheduleOptions& options);

/// Canonical text of a result row without its timing and resource fields
/// (fit_seconds, inference_ms_per_window, cpu_*, peak_rss_mb): what must
/// not change across repeats, transports, thread counts and tracing.
std::string CanonicalRow(const tfb::pipeline::ResultRow& row);

/// FNV-1a 64-bit digest of the canonical rows, in order, as 16 hex digits.
std::string DigestRows(const std::vector<tfb::pipeline::ResultRow>& rows);

}  // namespace tfbbench

#endif  // TFBBENCH_LEDGER_H_
