#ifndef TFBBENCH_BENCH_H_
#define TFBBENCH_BENCH_H_

// Shared plumbing of the three workloads: the run options, the result
// record every workload fills, clocks and rusage, and the trace
// collector of traced runs.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"

namespace tfbbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< Scratch files (journals, model files).
  std::size_t nproc = 1;
};

/// A metric name and its unit, as listed in BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (printed with --trace 0) and the per-layer
/// metrics (printed with --trace 1), in report order.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// One reported metric: the value printed on the result line plus the
/// sample it summarizes (repeats for times, requests for latencies).
struct Metric {
  std::string unit;
  double value = 0.0;
  Quartiles spread;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> order;  ///< Metric names in report order.
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> notes;  ///< Digests, counts, quirks.

  /// Deterministic output check: a failure makes the run incorrect.
  void Check(bool ok, const std::string& what);
  /// Records a metric whose value is the median of `samples`. The unit
  /// comes from the metric lists above.
  void Median(const std::string& name, const std::vector<double>& samples);
  /// Records a metric with an explicit value summarizing `samples`.
  void Set(const std::string& name, double value,
           const std::vector<double>& samples = {});
};

/// Seconds on the steady clock.
double NowSeconds();
/// User + system CPU seconds of this process and its waited-for children.
double CpuSeconds();
/// Peak RSS of this process plus that of its largest waited-for child, MiB.
double PeakRssMb();
/// User + system CPU seconds of this process alone.
double SelfCpuSeconds();

/// Traced-run collection. Begin() turns obs on and starts the tracer;
/// Harvest() moves the ring's events and the registry's counters into
/// this object and clears both, so forked shard workers, which inherit
/// the ring and the registry, start empty and ship back only their own
/// work; End() harvests and turns obs off.
class TraceCollector {
 public:
  void Begin();
  void Harvest();
  void End();

  /// Drops everything collected so far (between traced passes).
  void Clear();

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Sum of every counter whose name, before any `{label}` suffix, is
  /// `base` (worker-labelled copies included).
  double Counter(const std::string& base) const;

 private:
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
  std::uint64_t dropped_ = 0;
};

/// Capacity of the tracer ring in traced runs: large enough that a whole
/// univariate pass fits without overwriting (the default 65,536 does not).
inline constexpr std::size_t kTraceCapacity = std::size_t{1} << 22;

/// Workloads. Each runs set-up, measures for `options.seconds`, checks its
/// outputs and fills `result`.
void RunUnivariate(const RunOptions& options, RunResult* result);
void RunMultivariate(const RunOptions& options, RunResult* result);
void RunServe(const RunOptions& options, RunResult* result);

}  // namespace tfbbench

#endif  // TFBBENCH_BENCH_H_
