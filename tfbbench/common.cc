#include <sys/resource.h>

#include <chrono>

#include "bench.h"
#include "tfb/obs/metrics.h"
#include "tfb/obs/trace.h"

namespace tfbbench {

// Keep in step with BENCHMARK.json.
const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},         {"wall_s", "s"},  {"cpu_s", "s"},
      {"peak_rss_mb", "MiB"},   {"p50_ms", "ms"}, {"closed_qps", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"p99_ms", "ms"},
      {"failed_frac", "ratio"},
      {"datagen.s", "s"},
      {"characterization.s", "s"},
      {"characterization.series", "count"},
      {"runner.cells", "count"},
      {"runner.cells_failed", "count"},
      {"runner.task_ms_p50", "ms"},
      {"runner.task_ms_max", "ms"},
      {"runner.self_s", "s"},
      {"runner.busy_ratio", "ratio"},
      {"hyper.s", "s"},
      {"hyper.candidates", "count"},
      {"hyper.engaged_ratio", "ratio"},
      {"eval.fit_s.statistical", "s"},
      {"eval.fit_s.ml", "s"},
      {"eval.fit_s.dl", "s"},
      {"eval.forecast_s", "s"},
      {"eval.windows", "count"},
      {"nn.epochs", "count"},
      {"nn.epoch_s", "s"},
      {"linalg.gemm_calls", "count"},
      {"linalg.gemm_gflop", "gflop"},
      {"parallel.parallel_for", "count"},
      {"shard.dispatches", "count"},
      {"shard.redispatches", "count"},
      {"shard.worker_idle_s", "s"},
      {"shard.coordinator_cpu_s", "s"},
      {"transport.reconnects", "count"},
      {"transport.corrupt_frames", "count"},
      {"journal.lines", "count"},
      {"journal.bytes", "bytes"},
      {"journal.resume_s", "s"},
      {"http.connect_ms_p50", "ms"},
      {"http.exchange_ms_p50", "ms"},
      {"service.queue_ms_p50", "ms"},
      {"service.linger_ms_p50", "ms"},
      {"service.lease_ms_p50", "ms"},
      {"service.forecast_ms_p50", "ms"},
      {"service.other_ms_p50", "ms"},
      {"service.batch_size_mean", "count"},
      {"service.shed", "count"},
      {"registry.loads", "count"},
      {"registry.evictions", "count"},
      {"model_store.load_ms", "ms"},
      {"loadgen.late_ms_p99", "ms"},
      {"loadgen.samples", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.trace_dropped", "count"},
      {"attribution.coverage", "ratio"},
  };
  return specs;
}

namespace {

std::string UnitOf(const std::string& name) {
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *list) {
      if (name == spec.name) return spec.unit;
    }
  }
  return "count";
}

}  // namespace

void RunResult::Check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

void RunResult::Median(const std::string& name,
                       const std::vector<double>& samples) {
  Set(name, QuartilesOf(samples).median, samples);
}

void RunResult::Set(const std::string& name, double value,
                    const std::vector<double>& samples) {
  if (metrics.find(name) == metrics.end()) order.push_back(name);
  Metric& m = metrics[name];
  m.unit = UnitOf(name);
  m.value = value;
  m.spread = samples.empty() ? QuartilesOf({value}) : QuartilesOf(samples);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double CpuOf(int who) {
  rusage usage{};
  if (getrusage(who, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double MaxRssMbOf(int who) {
  rusage usage{};
  if (getrusage(who, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

double CpuSeconds() { return CpuOf(RUSAGE_SELF) + CpuOf(RUSAGE_CHILDREN); }

double SelfCpuSeconds() { return CpuOf(RUSAGE_SELF); }

double PeakRssMb() {
  return MaxRssMbOf(RUSAGE_SELF) + MaxRssMbOf(RUSAGE_CHILDREN);
}

void TraceCollector::Begin() {
  tfb::obs::SetEnabled(true);
  tfb::obs::DefaultRegistry().Reset();
  tfb::obs::DefaultTracer().Enable(kTraceCapacity);
}

void TraceCollector::Harvest() {
  tfb::obs::Tracer& tracer = tfb::obs::DefaultTracer();
  for (const tfb::obs::TraceEvent& e : tracer.Snapshot()) {
    if (e.phase != 'X') continue;
    Span s;
    s.name = e.name;
    s.pid = e.pid;
    s.tid = e.tid;
    s.ts_us = e.ts_us;
    s.dur_us = e.dur_us;
    s.args = e.args;
    spans_.push_back(std::move(s));
  }
  dropped_ += tracer.dropped();
  for (const auto& [name, value] :
       tfb::obs::DefaultRegistry().TakeSnapshot().counters) {
    counters_[name] += value;
  }
  tfb::obs::DefaultRegistry().Reset();
  tracer.Enable(kTraceCapacity);
}

void TraceCollector::End() {
  Harvest();
  tfb::obs::DefaultTracer().Disable();
  tfb::obs::SetEnabled(false);
}

void TraceCollector::Clear() {
  spans_.clear();
  counters_.clear();
}

double TraceCollector::Counter(const std::string& base) const {
  double total = 0.0;
  for (const auto& [name, value] : counters_) {
    if (name.compare(0, base.size(), base) == 0 &&
        (name.size() == base.size() || name[base.size()] == '{')) {
      total += value;
    }
  }
  return total;
}

}  // namespace tfbbench
