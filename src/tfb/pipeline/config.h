#ifndef TFB_PIPELINE_CONFIG_H_
#define TFB_PIPELINE_CONFIG_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "tfb/eval/strategy.h"
#include "tfb/obs/log.h"
#include "tfb/pipeline/runner.h"
#include "tfb/pipeline/shard.h"

namespace tfb::pipeline {

/// A parsed benchmark configuration — the C++ analogue of TFB's per-run
/// configuration files (Section 4.4: "it provides a standard configuration
/// file that can be customized by users"). Text format: one `key = value`
/// per line, `#` comments, with `datasets`, `methods`, `horizons` and
/// `metrics` as comma-separated lists. `strategy = rolling` is accepted
/// for older configs; it is the only protocol the pipeline runs. Every key
/// is also a `tfb_run` flag: `--max-windows=3` is the line `max_windows = 3`
/// (see ParseConfig).
///
/// Example:
///   # my_run.conf
///   datasets = ETTh2, ILI
///   methods  = VAR, NLinear, PatchAttention
///   horizons = 12, 24
///   metrics  = mae, mse, smape
///   scaler   = zscore
///   max_windows = 4
///   train_epochs = 10
///   hyper_search = true
///   seed = 7
struct BenchmarkConfig {
  std::vector<std::string> datasets;
  std::vector<std::string> methods;
  std::vector<std::size_t> horizons = {12};
  std::vector<eval::Metric> metrics = {eval::Metric::kMae, eval::Metric::kMse};
  ts::ScalerKind scaler = ts::ScalerKind::kZScore;
  std::size_t max_windows = 4;
  std::size_t stride = 0;
  bool drop_last = false;
  bool hyper_search = false;
  int train_epochs = 10;
  std::uint64_t seed = 7;
  std::size_t num_threads = 1;
  /// GEMM micro-kernel dispatch path ("kernel = scalar|avx2|neon"; CLI
  /// `--kernel=`). "" = auto: the TFB_KERNEL environment override if set,
  /// else the best path the CPU probe finds. A requested path that is
  /// unavailable on the running host falls back to scalar with a warning —
  /// never silently to a different SIMD path. All paths are bit-identical;
  /// this knob only pins the speed story (see tfb/linalg/gemm.h).
  std::string kernel;
  /// CPU scaling caps applied to registry datasets.
  std::size_t max_length = 900;
  std::size_t max_dim = 6;
  /// Fault-isolation knobs (see RunnerOptions for semantics).
  double deadline_seconds = 0.0;   ///< Per-task budget; 0 = no deadline.
  std::size_t max_retries = 0;     ///< Extra attempts after a failure.
  double retry_backoff_ms = 0.0;   ///< Base exponential-backoff delay.
  /// Ceiling on any single retry-backoff delay; 0 = uncapped (see
  /// RunnerOptions::retry_backoff_max_ms).
  double retry_backoff_max_ms = 30000.0;
  /// Sharded multi-process execution ("workers = 4" / `--workers=N`): the
  /// grid runs across this many worker processes (at most 256) under the
  /// crash-tolerant shard coordinator (see tfb/pipeline/shard.h). 0 =
  /// in-process execution by the plain BenchmarkRunner (the default).
  std::size_t workers = 0;
  /// Tasks per shard under sharded execution; 0 = auto-sized.
  std::size_t shard_size = 0;
  /// Worker transport under sharded execution ("transport = socketpair" or
  /// "tcp"; CLI `--transport=`). See pipeline::ShardTransport.
  std::string transport = "socketpair";
  /// TCP listen endpoint ("listen = host:port" / `--listen=`); port 0 binds
  /// an ephemeral port. Only meaningful with transport = tcp.
  std::string listen_host = "127.0.0.1";
  std::size_t listen_port = 0;
  /// Accept external `tfb_worker` processes only instead of forking local
  /// loopback workers ("external_workers = true"; CLI `--external-workers`).
  bool external_workers = false;
  /// Deterministic network-fault injection spec applied to worker send
  /// paths ("chaos_net = drop,corrupt,partition" / `--chaos-net=`); "" =
  /// disabled. See pipeline::ParseFaultPlan for the grammar.
  std::string chaos_net;
  std::string fallback;            ///< Fallback method name; "" = disabled.
  std::string journal;             ///< JSONL journal path; "" = no journal.
  bool journal_fsync = false;      ///< fsync the journal after every row.
  /// Process-sandbox knobs ("isolation = process" config key /
  /// `--isolate=process` CLI flag; see RunnerOptions::isolation).
  Isolation isolation = Isolation::kInProcess;
  std::size_t memory_limit_mb = 0;  ///< Per-task RLIMIT_AS cap; 0 = off.
  double cpu_limit_seconds = 0.0;   ///< Per-task RLIMIT_CPU cap; 0 = off.
  /// Observability sinks (tfb/obs; see DESIGN.md "Observability"). A
  /// non-empty path turns collection on for the run. `trace_out` receives
  /// Chrome trace_event JSON (chrome://tracing / Perfetto); `metrics_out`
  /// receives the metrics registry — Prometheus text, or JSON when the
  /// path ends in ".json". CLI: `--trace-out=` / `--metrics-out=`.
  std::string trace_out;
  std::string metrics_out;
  /// Live-telemetry knobs (see DESIGN.md "Observability").
  /// Minimum severity of the structured logger ("log_level = debug";
  /// CLI `--log-level=`).
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  /// JSONL log sink path ("log_json = run.log.jsonl"; CLI `--log-json=`);
  /// "" = text-only logging.
  std::string log_json;
  /// Terminal progress rendering ("progress = auto|bar|plain|off"; CLI
  /// `--progress=`). Config-driven runs default to kAuto: a bar on a TTY,
  /// heartbeat lines otherwise.
  obs::ProgressMode progress = obs::ProgressMode::kAuto;
  /// Embedded HTTP telemetry endpoint port ("serve = 9100"; CLI
  /// `--serve=PORT`): serves /metrics, /status, and /healthz on loopback
  /// for the duration of the run. 0 = disabled.
  std::size_t serve_port = 0;

  /// The runner options this configuration implies (resume stays false; it
  /// is a command-line decision, not a config-file one).
  RunnerOptions MakeRunnerOptions() const;
  /// The shard options this configuration implies: `workers`, `shard_size`,
  /// `transport`, `listen`, `external_workers` and `chaos_net`.
  ShardOptions MakeShardOptions() const;
};

/// Parses a configuration from text, then applies the command-line `flags`
/// in order: `--key=value` is the line `key = value` (a `-` in the key
/// stands for `_`), and a bare `--key` means `key = true`. Integer keys take
/// digits only; real keys take one number and nothing after it. Method,
/// dataset and fallback names are checked against the registries once,
/// after the flags. Returns nullopt on malformed input, with the offending
/// line or flag in `error` (unknown keys included: typo protection).
std::optional<BenchmarkConfig> ParseConfig(
    const std::string& text, std::string* error = nullptr,
    const std::vector<std::string>& flags = {});

/// Loads a configuration file and parses it as ParseConfig does.
std::optional<BenchmarkConfig> LoadConfigFile(
    const std::string& path, std::string* error = nullptr,
    const std::vector<std::string>& flags = {});

/// Serializes a configuration back to its text form.
std::string ConfigToString(const BenchmarkConfig& config);

/// Expands a configuration into the task list the runner executes:
/// datasets x methods x horizons, with registry datasets generated at the
/// configured scaling caps.
std::vector<BenchmarkTask> BuildTasks(const BenchmarkConfig& config);

/// Parses a metric name ("mae", "msmape", ...); nullopt when unknown.
std::optional<eval::Metric> MetricFromName(const std::string& name);

}  // namespace tfb::pipeline

#endif  // TFB_PIPELINE_CONFIG_H_
