#include "tfb/pipeline/telemetry.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <set>

#include "tfb/base/blob.h"
#include "tfb/obs/rusage.h"
#include "tfb/pipeline/wire.h"

namespace tfb::pipeline {

namespace {

// Hard caps on deserialized collection sizes: a corrupt count must not
// drive a huge allocation (the CRC layer catches line noise; this catches
// a hostile or buggy peer).
constexpr std::uint64_t kMaxSpans = 1 << 20;
constexpr std::uint64_t kMaxInstruments = 1 << 16;
constexpr std::uint64_t kMaxBuckets = 1 << 12;

base::Status ReadCount(base::BlobReader* r, std::uint64_t cap,
                       std::uint64_t* count) {
  TFB_RETURN_IF_ERROR(r->ReadU64(count));
  if (*count > cap) return base::Status::InvalidInput("count over cap");
  return base::Status::Ok();
}

/// Reads the `count`-prefixed name -> value map of counters or gauges.
base::Status ReadNamedValues(base::BlobReader* r,
                             std::map<std::string, double>* out) {
  std::uint64_t count = 0;
  TFB_RETURN_IF_ERROR(ReadCount(r, kMaxInstruments, &count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name;
    double value = 0.0;
    TFB_RETURN_IF_ERROR(r->ReadString(&name));
    TFB_RETURN_IF_ERROR(r->ReadDouble(&value));
    (*out)[std::move(name)] = value;
  }
  return base::Status::Ok();
}

base::Status ReadTelemetry(base::BlobReader* r, WorkerTelemetry* out) {
  std::uint64_t version = 0;
  TFB_RETURN_IF_ERROR(r->ReadU64(&version));
  if (version != kTelemetryBlobVersion) {
    return base::Status::InvalidInput("telemetry blob version mismatch");
  }
  TFB_RETURN_IF_ERROR(r->ReadU64(&out->pid));
  TFB_RETURN_IF_ERROR(r->ReadU64(&out->seq));
  TFB_RETURN_IF_ERROR(r->ReadU64(&out->trace_id));
  TFB_RETURN_IF_ERROR(r->ReadDouble(&out->cpu_seconds));
  TFB_RETURN_IF_ERROR(r->ReadDouble(&out->peak_rss_mb));
  TFB_RETURN_IF_ERROR(r->ReadU64(&out->tasks_completed));
  std::uint64_t count = 0;
  TFB_RETURN_IF_ERROR(ReadCount(r, kMaxSpans, &count));
  out->spans.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    WorkerTelemetry::Span& s = out->spans.emplace_back();
    std::uint8_t phase = 0;
    TFB_RETURN_IF_ERROR(r->ReadString(&s.name));
    TFB_RETURN_IF_ERROR(r->ReadString(&s.category));
    TFB_RETURN_IF_ERROR(r->ReadString(&s.args));
    TFB_RETURN_IF_ERROR(r->ReadU8(&phase));
    TFB_RETURN_IF_ERROR(r->ReadDouble(&s.ts_us));
    TFB_RETURN_IF_ERROR(r->ReadDouble(&s.dur_us));
    TFB_RETURN_IF_ERROR(r->ReadI64(&s.tid));
    s.phase = static_cast<char>(phase);
  }
  TFB_RETURN_IF_ERROR(ReadNamedValues(r, &out->counter_deltas));
  TFB_RETURN_IF_ERROR(ReadNamedValues(r, &out->gauges));
  TFB_RETURN_IF_ERROR(ReadCount(r, kMaxInstruments, &count));
  out->histograms.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    WorkerTelemetry::HistogramDelta& h = out->histograms.emplace_back();
    std::uint64_t n = 0;
    TFB_RETURN_IF_ERROR(r->ReadString(&h.name));
    TFB_RETURN_IF_ERROR(ReadCount(r, kMaxBuckets, &n));
    h.bounds.resize(static_cast<std::size_t>(n));
    for (double& b : h.bounds) TFB_RETURN_IF_ERROR(r->ReadDouble(&b));
    TFB_RETURN_IF_ERROR(r->ReadU64(&n));
    if (n != h.bounds.size() + 1) {
      return base::Status::InvalidInput("bucket count != bounds + 1");
    }
    h.bucket_deltas.resize(static_cast<std::size_t>(n));
    for (std::uint64_t& c : h.bucket_deltas) {
      TFB_RETURN_IF_ERROR(r->ReadU64(&c));
    }
    TFB_RETURN_IF_ERROR(r->ReadDouble(&h.sum_delta));
  }
  if (!r->exhausted()) return base::Status::InvalidInput("trailing bytes");
  return base::Status::Ok();
}

}  // namespace

std::string SerializeTraceContext(const TraceContext& ctx) {
  return std::to_string(ctx.trace_id) + " " + std::to_string(ctx.parent_span);
}

std::optional<TraceContext> ParseTraceContext(std::string_view payload) {
  const auto fields = ParseSizeFields(payload, 2, 2);
  if (!fields) return std::nullopt;
  TraceContext ctx;
  ctx.trace_id = static_cast<std::uint64_t>((*fields)[0]);
  ctx.parent_span = static_cast<std::uint64_t>((*fields)[1]);
  return ctx;
}

double EstimateClockOffset(const std::vector<PingSample>& samples) {
  const PingSample* best = nullptr;
  double best_rtt = 0.0;
  for (const PingSample& s : samples) {
    const double rtt = s.t_recv_us - s.t_send_us;
    if (rtt < 0.0) continue;  // Clock went backwards: not a usable sample.
    if (best == nullptr || rtt < best_rtt) {
      best = &s;
      best_rtt = rtt;
    }
  }
  if (best == nullptr) return 0.0;
  return best->t_remote_us - (best->t_send_us + best->t_recv_us) / 2.0;
}

std::string SerializeWorkerTelemetry(const WorkerTelemetry& telemetry) {
  base::BlobWriter w;
  w.PutU64(kTelemetryBlobVersion);
  w.PutU64(telemetry.pid);
  w.PutU64(telemetry.seq);
  w.PutU64(telemetry.trace_id);
  w.PutDouble(telemetry.cpu_seconds);
  w.PutDouble(telemetry.peak_rss_mb);
  w.PutU64(telemetry.tasks_completed);
  w.PutU64(telemetry.spans.size());
  for (const WorkerTelemetry::Span& s : telemetry.spans) {
    w.PutString(s.name);
    w.PutString(s.category);
    w.PutString(s.args);
    w.PutU8(static_cast<std::uint8_t>(s.phase));
    w.PutDouble(s.ts_us);
    w.PutDouble(s.dur_us);
    w.PutI64(s.tid);
  }
  w.PutU64(telemetry.counter_deltas.size());
  for (const auto& [name, delta] : telemetry.counter_deltas) {
    w.PutString(name);
    w.PutDouble(delta);
  }
  w.PutU64(telemetry.gauges.size());
  for (const auto& [name, value] : telemetry.gauges) {
    w.PutString(name);
    w.PutDouble(value);
  }
  w.PutU64(telemetry.histograms.size());
  for (const WorkerTelemetry::HistogramDelta& h : telemetry.histograms) {
    w.PutString(h.name);
    w.PutDoubleVector(h.bounds);
    w.PutU64(h.bucket_deltas.size());
    for (const std::uint64_t c : h.bucket_deltas) w.PutU64(c);
    w.PutDouble(h.sum_delta);
  }
  return w.TakeBytes();
}

bool DeserializeWorkerTelemetry(std::string_view payload,
                                WorkerTelemetry* telemetry) {
  base::BlobReader r(payload);
  WorkerTelemetry out;
  if (!ReadTelemetry(&r, &out).ok()) return false;
  *telemetry = std::move(out);
  return true;
}

WorkerTelemetry TelemetryCollector::Collect(std::uint64_t trace_id,
                                            std::uint64_t tasks_completed) {
  WorkerTelemetry out;
  out.pid = static_cast<std::uint64_t>(getpid());
  out.seq = ++seq_;
  out.trace_id = trace_id;
  out.tasks_completed = tasks_completed;
  const obs::ResourceUsage usage = obs::SelfUsage();
  out.cpu_seconds = usage.total_cpu_seconds();
  out.peak_rss_mb = usage.max_rss_mb;

  for (const obs::TraceEvent& e :
       obs::DefaultTracer().DrainSince(&trace_cursor_)) {
    WorkerTelemetry::Span s;
    s.name = e.name;
    s.category = e.category;
    s.args = e.args;
    s.phase = e.phase;
    s.ts_us = e.ts_us;
    s.dur_us = e.dur_us;
    s.tid = e.tid;
    out.spans.push_back(std::move(s));
  }

  obs::Registry::Snapshot now = obs::DefaultRegistry().TakeSnapshot();
  for (const auto& [name, value] : now.counters) {
    const auto it = last_.counters.find(name);
    const double delta = value - (it != last_.counters.end() ? it->second : 0);
    if (delta != 0.0) out.counter_deltas[name] = delta;
  }
  out.gauges = now.gauges;
  for (const auto& [name, state] : now.histograms) {
    const auto it = last_.histograms.find(name);
    WorkerTelemetry::HistogramDelta delta;
    delta.name = name;
    delta.bounds = state.bounds;
    delta.bucket_deltas = state.buckets;
    delta.sum_delta = state.sum;
    if (it != last_.histograms.end() &&
        it->second.buckets.size() == state.buckets.size()) {
      bool any = false;
      for (std::size_t i = 0; i < state.buckets.size(); ++i) {
        delta.bucket_deltas[i] -= it->second.buckets[i];
        if (delta.bucket_deltas[i] != 0) any = true;
      }
      delta.sum_delta -= it->second.sum;
      if (!any) continue;
    }
    out.histograms.push_back(std::move(delta));
  }
  last_ = std::move(now);
  return out;
}

void TelemetryCollector::ResetBaseline() {
  trace_cursor_ = obs::DefaultTracer().recorded();
  last_ = obs::DefaultRegistry().TakeSnapshot();
}

std::string SpliceWorkerLabel(const std::string& name,
                              const std::string& worker) {
  const std::string label = "worker=\"" + worker + "\"";
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) return name + "{" + label + "}";
  return name.substr(0, name.size() - 1) + "," + label + "}";
}

void MergeWorkerTelemetry(const WorkerTelemetry& telemetry,
                          const std::string& worker, double clock_offset_us,
                          obs::Registry* registry, obs::Tracer* tracer) {
  if (registry != nullptr) {
    for (const auto& [name, delta] : telemetry.counter_deltas) {
      registry->GetCounter(SpliceWorkerLabel(name, worker)).Increment(delta);
    }
    for (const auto& [name, value] : telemetry.gauges) {
      registry->GetGauge(SpliceWorkerLabel(name, worker)).Set(value);
    }
    for (const WorkerTelemetry::HistogramDelta& h : telemetry.histograms) {
      registry->GetHistogram(SpliceWorkerLabel(h.name, worker), h.bounds)
          .MergeBuckets(h.bucket_deltas, h.sum_delta);
    }
    const auto fleet_gauge = [&](const char* name, double value) {
      registry->GetGauge(SpliceWorkerLabel(name, worker)).Set(value);
    };
    fleet_gauge("tfb_fleet_worker_tasks",
                static_cast<double>(telemetry.tasks_completed));
    fleet_gauge("tfb_fleet_worker_cpu_seconds", telemetry.cpu_seconds);
    fleet_gauge("tfb_fleet_worker_peak_rss_mb", telemetry.peak_rss_mb);
    fleet_gauge("tfb_fleet_worker_clock_offset_us", clock_offset_us);
  }

  if (tracer == nullptr || telemetry.spans.empty()) return;
  const std::int64_t pid = static_cast<std::int64_t>(telemetry.pid);
  // Name the worker's track once per pid: chrome://tracing shows the
  // metadata's "name" instead of a bare pid number.
  static std::mutex* mu = new std::mutex();
  static auto* named = new std::set<std::int64_t>();
  {
    const std::lock_guard<std::mutex> lock(*mu);
    if (named->insert(pid).second) {
      obs::TraceEvent meta;
      meta.name = "process_name";
      meta.category = "__metadata";
      meta.phase = 'M';
      meta.ts_us = 0.0;
      meta.pid = pid;
      meta.tid = 0;
      meta.args = obs::ArgsJson({{"name", "tfb_worker " + worker}});
      tracer->RecordForeign(std::move(meta));
    }
  }
  for (const WorkerTelemetry::Span& s : telemetry.spans) {
    obs::TraceEvent e;
    e.name = obs::InternTraceName(s.name);
    e.category = obs::InternTraceName(s.category);
    e.phase = s.phase;
    e.ts_us = s.ts_us - clock_offset_us;
    e.dur_us = s.dur_us;
    e.pid = pid;
    e.tid = s.tid;
    e.args = s.args;
    tracer->RecordForeign(std::move(e));
  }
}

}  // namespace tfb::pipeline
