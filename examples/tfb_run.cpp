// tfb_run: the automated end-to-end pipeline as a command-line tool
// (Section 4.4: "users only need to deploy their method ... and choose or
// configure the configuration file, then TFB can automatically run the
// pipeline").
//
// Usage:
//   ./build/examples/tfb_run my_run.conf            # run a config file
//   ./build/examples/tfb_run my_run.conf --resume   # skip journaled tasks
//   ./build/examples/tfb_run my_run.conf --workers=4 --seed=8
//   ./build/examples/tfb_run --print-default        # show default config
//   ./build/examples/tfb_run                        # run a small demo
//
// Any config key is also a flag, `--key=value`, applied after the file's
// lines in argv order: `--max-windows=3` is the line `max_windows = 3` (a
// `-` in the key stands for `_`), and a bare `--external-workers` means
// `external_workers = true`. The file and the flags go through one parser
// (pipeline::ParseConfig), so they accept and reject the same values.
// `--isolate=MODE` is a spelling of `--isolation=MODE`. Only three flags
// are not config keys: `--resume`, `--print-default` and
// `--chaos-kill-worker=K`.
//
// Fault isolation (see the "Failure semantics" section of DESIGN.md): the
// config keys `deadline_seconds`, `max_retries`, `retry_backoff_ms`,
// `fallback`, and `journal` bound each task's budget, retry transient
// failures with exponential backoff, keep the table complete with a
// fallback forecaster, and journal finished rows as JSONL. With a `journal`
// configured, `--resume` continues an interrupted grid, executing only the
// cells the journal does not cover.
//
// Process isolation (`isolation = process`, or `--isolate=process`):
// every task runs in a fork()ed child under the configured
// `memory_limit_mb` / `cpu_limit_seconds` resource limits. A method that
// segfaults, aborts, allocates without bound, or hangs is killed and
// classified (crash / oom / timeout / abort) in the journal and the
// report's failure footer; the rest of the grid is untouched.
//
// Observability (see the "Observability" section of DESIGN.md):
// `--trace-out=run.trace.json` captures runner / sandbox / trainer / eval
// spans as Chrome trace_event JSON — load it in chrome://tracing or
// https://ui.perfetto.dev. `--metrics-out=run.prom` dumps the metrics
// registry as Prometheus text, or JSON when the path ends in ".json".
// Either key turns
// collection on; without them the instrumented paths stay disabled and
// effectively free. Resource accounting (per-task CPU seconds; peak RSS
// under process isolation) always lands on the rows, the CSV, and the
// performance summary printed after the result table.
//
// Sharded multi-process execution (see the "Sharded execution" section of
// DESIGN.md): `--workers=N` runs the grid across N
// fork()ed worker processes under a crash-tolerant coordinator — a worker
// that dies mid-shard is replaced and its unfinished tasks re-dispatched; a
// task that repeatedly kills its worker is quarantined with a CRASHED row.
// Workers write no file: the coordinator appends each finished row to the
// journal exactly as the in-process runner does, so `--resume` recovers
// from any coordinator/worker crash combination. `--chaos-kill-worker=K`
// makes the worker with spawn index K kill itself after its first
// completed task (recovery drills, CI smoke).
//
// TCP transport (see the "Transport" section of DESIGN.md):
// `--transport=tcp` moves the coordinator<->worker protocol onto framed,
// CRC-checked TCP connections. By default the coordinator still forks its
// workers (they connect over loopback); with `--external-workers` it only
// listens on `--listen=HOST:PORT` and `tfb_worker --connect=HOST:PORT`
// processes — on this or any other host — supply the compute. A worker
// connection that drops is re-queued for free and the worker reconnects
// with backoff; stale results from a superseded connection are fenced by
// lease epoch. `--chaos-net=drop,corrupt,short,delay,partition` injects
// deterministic, seeded network faults into worker send paths (CI chaos
// smoke); see pipeline::ParseFaultPlan for the spec grammar.
//
// Live telemetry:
//   --serve=9100        embedded HTTP endpoint for the duration of the run:
//                       curl localhost:9100/status   (JSON progress + ETA)
//                       curl localhost:9100/metrics  (Prometheus text)
//                       curl localhost:9100/healthz  (liveness)
//   --progress=MODE     terminal progress: auto (default; TTY bar, else
//                       heartbeat lines), bar, plain, off
//   --log-level=LEVEL   trace|debug|info|warn|error|off (default info)
//   --log-json=FILE     mirror every log line as JSONL to FILE
//
// Emits the result table to stdout and tfb_results.csv to the working
// directory.

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <string_view>

#include "tfb/linalg/gemm.h"
#include "tfb/pipeline/config.h"
#include "tfb/pipeline/shard.h"
#include "tfb/report/ascii_plot.h"
#include "tfb/tfb.h"

namespace {

/// The grid run when no config file is given.
constexpr char kDemoConfig[] =
    "datasets = ILI, NASDAQ\n"
    "methods = SeasonalNaive, VAR, LinearRegression, NLinear\n"
    "horizons = 12\n"
    "train_epochs = 10\n";

/// "tfb-20260806T101112-12345": unique enough to tell two runs apart on a
/// dashboard, human-decodable, no dependencies.
std::string MakeRunId() {
  char when[32];
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  std::strftime(when, sizeof(when), "%Y%m%dT%H%M%S", &utc);
  return std::string("tfb-") + when + "-" + std::to_string(getpid());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tfb;

  const char* config_path = nullptr;
  bool resume = false;
  int chaos_kill_worker = -1;  // Spawn index to fault-kill; -1 = off.
  std::vector<std::string> flags;
  const char* usage =
      "usage: tfb_run [config] [--resume] [--chaos-kill-worker=K]\n"
      "               [--KEY=VALUE ...]  any config key as --key=value\n"
      "                                  (keys: tfb_run --print-default)\n"
      "       tfb_run --print-default\n";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--print-default") {
      pipeline::BenchmarkConfig config;
      config.datasets = {"ETTh2", "ILI"};
      config.methods = {"VAR", "LinearRegression", "NLinear"};
      std::printf("%s", pipeline::ConfigToString(config).c_str());
      return 0;
    }
    if (arg == "--resume") {
      resume = true;
    } else if (arg.starts_with("--chaos-kill-worker=")) {
      const std::string_view index = arg.substr(20);
      const auto [end, ec] = std::from_chars(
          index.data(), index.data() + index.size(), chaos_kill_worker);
      if (ec != std::errc() || end != index.data() + index.size() ||
          chaos_kill_worker < 0) {
        std::fprintf(stderr, "bad --chaos-kill-worker index: %s\n",
                     argv[i] + 20);
        return 1;
      }
    } else if (arg.starts_with("--isolate=")) {
      flags.push_back("--isolation=" + std::string(arg.substr(10)));
    } else if (arg.starts_with("--")) {
      flags.emplace_back(arg);
    } else if (config_path == nullptr) {
      config_path = argv[i];
    } else {
      std::fprintf(stderr, "%s", usage);
      return 1;
    }
  }
  std::string error;
  const auto parsed =
      config_path != nullptr
          ? pipeline::LoadConfigFile(config_path, &error, flags)
          : pipeline::ParseConfig(kDemoConfig, &error, flags);
  if (!parsed) {
    std::fprintf(stderr, "config error: %s\n%s", error.c_str(), usage);
    return 1;
  }
  const pipeline::BenchmarkConfig& config = *parsed;
  if (resume && config.journal.empty()) {
    std::fprintf(stderr,
                 "--resume needs a `journal = <path>` key in the config\n");
    return 1;
  }
  // Pin the GEMM dispatch path before any compute runs. A valid name that
  // this host cannot run falls back to scalar (the portable baseline) —
  // results are bit-identical on every path, so only speed is affected.
  if (!config.kernel.empty()) {
    if (!linalg::kernel::SetKernelPathByName(config.kernel)) {
      std::fprintf(stderr,
                   "kernel path %s unavailable on this host; using scalar\n",
                   config.kernel.c_str());
      linalg::kernel::SetKernelPath(linalg::kernel::KernelPath::kScalar);
    }
    std::printf("gemm kernel path: %s\n",
                linalg::kernel::KernelPathName(
                    linalg::kernel::ActiveKernelPath()));
  }
  const std::string& trace_out = config.trace_out;
  const std::string& metrics_out = config.metrics_out;
  const auto port = static_cast<std::uint16_t>(config.serve_port);
  // Serving /metrics implies collecting them.
  if (!trace_out.empty() || !metrics_out.empty() || port != 0) {
    obs::SetEnabled(true);
    if (!trace_out.empty()) obs::DefaultTracer().Enable();
  }
  obs::DefaultLogger().SetLevel(config.log_level);
  if (!config.log_json.empty() &&
      !obs::DefaultLogger().OpenJsonlSink(config.log_json)) {
    std::fprintf(stderr, "cannot open log_json sink %s\n",
                 config.log_json.c_str());
    return 1;
  }
  const std::string run_id = MakeRunId();
  obs::HttpExporter exporter({.port = port, .run_id = run_id});
  if (port != 0) {
    const base::Status status = exporter.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "serve failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  const auto tasks = pipeline::BuildTasks(config);
  std::printf("running %zu tasks (%zu datasets x %zu methods x %zu horizons)"
              "...\n\n",
              tasks.size(), config.datasets.size(), config.methods.size(),
              config.horizons.size());
  pipeline::RunnerOptions runner_options = config.MakeRunnerOptions();
  runner_options.resume = resume;
  // With a live progress display the per-task INFO lines are redundant
  // noise; keep them for off/plain-free runs (still reachable anywhere via
  // --log-level=debug).
  runner_options.verbose = config.progress == obs::ProgressMode::kOff;
  if (runner_options.isolation == pipeline::Isolation::kProcess) {
    std::printf("process isolation: on (memory_limit_mb=%zu, "
                "cpu_limit_seconds=%g)\n",
                runner_options.memory_limit_mb,
                runner_options.cpu_limit_seconds);
  }
  std::vector<pipeline::ResultRow> rows;
  if (config.workers > 0) {
    pipeline::ShardOptions shard_options = config.MakeShardOptions();
    shard_options.fault_kill_worker = chaos_kill_worker;
    if (!config.chaos_net.empty()) {
      std::printf("network chaos: %s\n",
                  pipeline::FaultPlanToString(shard_options.chaos).c_str());
    }
    pipeline::ShardCoordinator coordinator(runner_options, shard_options);
    if (shard_options.transport == pipeline::ShardTransport::kTcp) {
      std::string bind_error;
      if (!coordinator.BindListener(&bind_error)) {
        std::fprintf(stderr, "listen failed: %s\n", bind_error.c_str());
        return 1;
      }
      std::printf("sharded execution: %zu workers over tcp %s:%u%s\n",
                  config.workers, shard_options.listen_host.c_str(),
                  static_cast<unsigned>(coordinator.listen_port()),
                  shard_options.spawn_workers
                      ? ""
                      : " (waiting for external tfb_worker processes)");
    } else {
      std::printf("sharded execution: %zu worker processes\n",
                  config.workers);
    }
    rows = coordinator.Run(tasks);
    const pipeline::ShardRunStats& stats = coordinator.stats();
    if (stats.worker_deaths > 0 || stats.interrupted) {
      std::printf("shard recovery: %zu worker death(s), %zu re-dispatch(es), "
                  "%zu split(s), %zu quarantined%s\n",
                  stats.worker_deaths, stats.redispatches, stats.shard_splits,
                  stats.quarantined,
                  stats.interrupted ? " (run interrupted)" : "");
    }
    if (stats.reconnects > 0 || stats.disconnects > 0 ||
        stats.fenced_completions > 0 || stats.corrupt_frames > 0) {
      std::printf("transport recovery: %zu disconnect(s), %zu reconnect(s), "
                  "%zu fenced completion(s), %zu corrupt frame(s)\n",
                  stats.disconnects, stats.reconnects,
                  stats.fenced_completions, stats.corrupt_frames);
    }
  } else {
    rows = pipeline::BenchmarkRunner(runner_options).Run(tasks);
  }

  report::PrintTable(std::cout, rows, config.metrics);
  report::PrintPerfSummary(std::cout, rows);
  if (report::WriteCsv("tfb_results.csv", rows, config.metrics)) {
    std::printf("\nwrote tfb_results.csv\n");
  }
  if (!trace_out.empty()) {
    if (obs::DefaultTracer().WriteJson(trace_out)) {
      std::printf("wrote %s (%llu events; load in chrome://tracing)\n",
                  trace_out.c_str(),
                  static_cast<unsigned long long>(
                      obs::DefaultTracer().Snapshot().size()));
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
    }
  }
  if (!metrics_out.empty()) {
    if (obs::WriteMetricsFile(obs::DefaultRegistry(), metrics_out)) {
      std::printf("wrote %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   metrics_out.c_str());
    }
  }

  // Visualization module: bar chart of the first metric per method on the
  // first dataset/horizon cell.
  if (!rows.empty() && !config.metrics.empty()) {
    std::vector<std::string> labels;
    std::vector<double> values;
    for (const auto& row : rows) {
      if (row.dataset != rows[0].dataset || row.horizon != rows[0].horizon ||
          !row.ok) {
        continue;
      }
      labels.push_back(row.method);
      values.push_back(row.metrics.at(config.metrics[0]));
    }
    std::printf("\n%s on %s (h=%zu):\n%s",
                eval::MetricName(config.metrics[0]).c_str(),
                rows[0].dataset.c_str(), rows[0].horizon,
                report::AsciiBarChart(labels, values).c_str());
  }

  exporter.Stop();
  // Give watchdog workers abandoned at a hard-deadline cutoff a short
  // grace to come home so the process exits with every thread joined.
  if (const std::size_t orphans = pipeline::ReapAbandonedWorkers(1.0);
      orphans > 0) {
    obs::DefaultLogger().Warn(
        "exiting with hung watchdog workers still running",
        {{"count", std::to_string(orphans)}});
  }
  return 0;
}
