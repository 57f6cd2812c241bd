#ifndef TFB_PIPELINE_TELEMETRY_H_
#define TFB_PIPELINE_TELEMETRY_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tfb/obs/metrics.h"
#include "tfb/obs/trace.h"

/// \file
/// Fleet telemetry for the sharded executor (DESIGN.md "Distributed
/// observability"): the data plane that makes a remote `tfb_worker` visible
/// from the coordinator's `/metrics`, `/status`, and merged Chrome trace.
///
/// Three pieces:
///
///  - **Trace context** travels coordinator->worker in a kTraceCtx frame
///    ("<trace_id> <parent_span>"); the worker tags every span batch it
///    ships with it, so the merged trace parents all fleet work under one
///    trace_id.
///  - **WorkerTelemetry** is the worker->coordinator batch: process
///    identity + rusage, trace spans drained since the last ship, and
///    metric *deltas* (counters/histograms diff two registry snapshots, so
///    re-shipping after a reconnect never double-counts a lost batch —
///    losses show up as gaps, not duplicates). It piggybacks on frames the
///    protocol already exchanges (HEARTBEAT, DONE) as an optional binary
///    blob after the text header, so telemetry adds zero extra round trips
///    and the journal path never sees it (rows stay byte-identical with
///    telemetry on or off).
///  - **Clock offset** between coordinator and worker steady clocks is
///    estimated with a ping echo (kPing/kPong) using the midpoint method on
///    the minimum-RTT sample; the coordinator subtracts it from shipped
///    span timestamps so cross-host spans line up on one timeline.

namespace tfb::pipeline {

/// Version tag leading every serialized WorkerTelemetry blob.
inline constexpr std::uint64_t kTelemetryBlobVersion = 1;

/// The trace identity a shard dispatch executes under.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

/// kTraceCtx payload: "<trace_id> <parent_span>".
std::string SerializeTraceContext(const TraceContext& ctx);
std::optional<TraceContext> ParseTraceContext(std::string_view payload);

/// One ping/pong exchange, all in microseconds: `t_send`/`t_recv` on the
/// local (coordinator) clock, `t_remote` the worker's clock when it echoed.
struct PingSample {
  double t_send_us = 0.0;
  double t_recv_us = 0.0;
  double t_remote_us = 0.0;
};

/// Midpoint-method clock offset (remote minus local, microseconds): the
/// sample with the smallest RTT — the one least distorted by queueing —
/// yields offset = t_remote - (t_send + t_recv) / 2. A remote timestamp
/// maps onto the local timeline as `t_remote - offset`. Returns 0 when
/// `samples` is empty or every sample has a negative RTT.
double EstimateClockOffset(const std::vector<PingSample>& samples);

/// One telemetry batch shipped worker -> coordinator.
struct WorkerTelemetry {
  std::uint64_t pid = 0;
  /// Monotonic per-process batch number. The coordinator applies each
  /// (pid, seq) at most once, so a DONE resent through a healed partition
  /// (same blob, same seq) cannot double-count its deltas.
  std::uint64_t seq = 0;
  std::uint64_t trace_id = 0;  ///< Echo of the active TraceContext.
  double cpu_seconds = 0.0;    ///< getrusage(RUSAGE_SELF), user+system.
  double peak_rss_mb = 0.0;
  std::uint64_t tasks_completed = 0;

  struct Span {
    std::string name;
    std::string category;
    std::string args;  ///< Pre-rendered JSON body, as TraceEvent::args.
    char phase = 'X';
    double ts_us = 0.0;  ///< Worker-clock microseconds.
    double dur_us = 0.0;
    std::int64_t tid = 0;
  };
  std::vector<Span> spans;

  std::map<std::string, double> counter_deltas;
  std::map<std::string, double> gauges;  ///< Absolute (last-write-wins).

  struct HistogramDelta {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> bucket_deltas;  ///< bounds.size() + 1.
    double sum_delta = 0.0;
  };
  std::vector<HistogramDelta> histograms;
};

/// Binary blob form (base::BlobWriter format, versioned).
std::string SerializeWorkerTelemetry(const WorkerTelemetry& telemetry);
/// False on malformed/truncated input or a version mismatch.
bool DeserializeWorkerTelemetry(std::string_view payload,
                                WorkerTelemetry* telemetry);

/// Worker-side batch builder: each Collect() drains the tracer ring since
/// the previous call, diffs the registry against the previous snapshot
/// (counters/histograms ship deltas, gauges ship values), and stamps in
/// process identity + rusage. Stateful — keep one per worker session.
class TelemetryCollector {
 public:
  /// `trace_id`/`tasks_completed` are the caller's running state.
  WorkerTelemetry Collect(std::uint64_t trace_id,
                          std::uint64_t tasks_completed);

  /// Moves the baseline to now: later batches ship only the spans and
  /// counter/histogram changes recorded after this call. A forked worker
  /// calls it when telemetry turns on, so the trace ring and metric totals
  /// it inherited from the coordinator are not shipped as its own.
  void ResetBaseline();

 private:
  obs::Registry::Snapshot last_;
  std::uint64_t trace_cursor_ = 0;
  std::uint64_t seq_ = 0;
};

/// Splices a `worker` label into a metric name that may already carry an
/// embedded label set: ("tfb_x", "3") -> `tfb_x{worker="3"}`;
/// (`tfb_x{a="b"}`, "3") -> `tfb_x{a="b",worker="3"}`.
std::string SpliceWorkerLabel(const std::string& name,
                              const std::string& worker);

/// Coordinator-side merge: applies `telemetry` into `registry` under a
/// `worker="<worker>"` label (plus the `tfb_fleet_worker_*` usage gauges
/// its header carries) and stitches its spans into `tracer` with
/// timestamps re-aligned by `clock_offset_us` (the EstimateClockOffset
/// result for that connection) and pid set to the worker's. The first merge
/// for a pid also records a `process_name` metadata event so the trace
/// viewer names the worker's track.
void MergeWorkerTelemetry(const WorkerTelemetry& telemetry,
                          const std::string& worker, double clock_offset_us,
                          obs::Registry* registry, obs::Tracer* tracer);

}  // namespace tfb::pipeline

#endif  // TFB_PIPELINE_TELEMETRY_H_
