// tfb_run: the automated end-to-end pipeline as a command-line tool
// (Section 4.4: "users only need to deploy their method ... and choose or
// configure the configuration file, then TFB can automatically run the
// pipeline").
//
// Usage:
//   ./build/examples/tfb_run my_run.conf            # run a config file
//   ./build/examples/tfb_run my_run.conf --resume   # skip journaled tasks
//   ./build/examples/tfb_run my_run.conf --isolate=process  # sandbox tasks
//   ./build/examples/tfb_run --print-default        # show default config
//   ./build/examples/tfb_run                        # run a small demo
//
// Fault isolation (see the "Failure semantics" section of DESIGN.md): the
// config keys `deadline_seconds`, `max_retries`, `retry_backoff_ms`,
// `fallback`, and `journal` bound each task's budget, retry transient
// failures with exponential backoff, keep the table complete with a
// fallback forecaster, and journal finished rows as JSONL. With a `journal`
// configured, `--resume` continues an interrupted grid, executing only the
// cells the journal does not cover.
//
// Process isolation (`--isolate=process`, or `isolation = process` in the
// config): every task runs in a fork()ed child under the configured
// `memory_limit_mb` / `cpu_limit_seconds` resource limits. A method that
// segfaults, aborts, allocates without bound, or hangs is killed and
// classified (crash / oom / timeout / abort) in the journal and the
// report's failure footer; the rest of the grid is untouched.
// `--isolate=in_process` forces the threaded mode over the config.
//
// Observability (see the "Observability" section of DESIGN.md):
// `--trace-out=run.trace.json` (config key `trace_out`) captures runner /
// sandbox / trainer / eval spans as Chrome trace_event JSON — load it in
// chrome://tracing or https://ui.perfetto.dev. `--metrics-out=run.prom`
// (config key `metrics_out`) dumps the metrics registry as Prometheus
// text, or JSON when the path ends in ".json". Either flag turns
// collection on; without them the instrumented paths stay disabled and
// effectively free. Resource accounting (per-task CPU seconds; peak RSS
// under process isolation) always lands on the rows, the CSV, and the
// performance summary printed after the result table.
//
// Sharded multi-process execution (see the "Sharded execution" section of
// DESIGN.md): `--workers=N` (config key `workers`) runs the grid across N
// fork()ed worker processes under a crash-tolerant coordinator — a worker
// that dies mid-shard is replaced and its unfinished tasks re-dispatched; a
// task that repeatedly kills its worker is quarantined with a CRASHED row.
// Workers write no file: the coordinator appends each finished row to the
// journal exactly as the in-process runner does, so `--resume` recovers
// from any coordinator/worker crash combination. `--chaos-kill-worker=K` makes the
// worker with spawn index K kill itself after its first completed task
// (recovery drills, CI smoke).
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

#include <cstdio>
#include <cstring>
#include <ctime>
#include <iostream>

#include "tfb/linalg/gemm.h"
#include "tfb/pipeline/config.h"
#include "tfb/pipeline/shard.h"
#include "tfb/report/ascii_plot.h"
#include "tfb/tfb.h"

namespace {

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

  pipeline::BenchmarkConfig config;
  bool resume = false;
  bool isolation_forced = false;
  pipeline::Isolation isolation = pipeline::Isolation::kInProcess;
  const char* config_path = nullptr;
  std::string trace_out;    // --trace-out= overrides the config key.
  std::string metrics_out;  // --metrics-out= overrides the config key.
  // CLI overrides for the telemetry config keys; the *_set flags separate
  // "flag absent" from "flag set to the default value".
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  bool log_level_set = false;
  std::string log_json;
  obs::ProgressMode progress_mode = obs::ProgressMode::kAuto;
  bool progress_set = false;
  long serve_port = -1;  // -1 = flag absent.
  long workers = -1;     // -1 = flag absent (config key decides).
  long chaos_kill_worker = -1;  // Spawn index to fault-kill; -1 = off.
  std::string transport;   // --transport= overrides the config key.
  std::string listen;      // --listen=HOST:PORT overrides the config key.
  std::string chaos_net;   // --chaos-net= overrides the config key.
  std::string kernel;      // --kernel= overrides the config key.
  bool external_workers = false;
  const char* usage =
      "usage: tfb_run [config] [--resume] [--isolate=process|in_process]\n"
      "               [--workers=N] [--chaos-kill-worker=K]\n"
      "               [--transport=socketpair|tcp] [--listen=HOST:PORT]\n"
      "               [--external-workers] [--chaos-net=SPEC]\n"
      "               [--trace-out=FILE.json] [--metrics-out=FILE[.json]]\n"
      "               [--serve=PORT] [--progress=auto|bar|plain|off]\n"
      "               [--log-level=LEVEL] [--log-json=FILE]\n"
      "               [--kernel=scalar|avx2|neon]\n";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--print-default") == 0) {
      config.datasets = {"ETTh2", "ILI"};
      config.methods = {"VAR", "LinearRegression", "NLinear"};
      std::printf("%s", pipeline::ConfigToString(config).c_str());
      return 0;
    }
    if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--isolate=process") == 0) {
      isolation_forced = true;
      isolation = pipeline::Isolation::kProcess;
    } else if (std::strcmp(argv[i], "--isolate=in_process") == 0) {
      isolation_forced = true;
      isolation = pipeline::Isolation::kInProcess;
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = std::strtol(argv[i] + 10, nullptr, 10);
      if (workers < 0 || workers > 256) {
        std::fprintf(stderr, "bad --workers count: %s\n", argv[i] + 10);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--chaos-kill-worker=", 20) == 0) {
      chaos_kill_worker = std::strtol(argv[i] + 20, nullptr, 10);
      if (chaos_kill_worker < 0) {
        std::fprintf(stderr, "bad --chaos-kill-worker index: %s\n",
                     argv[i] + 20);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--transport=", 12) == 0) {
      transport = argv[i] + 12;
      if (transport != "socketpair" && transport != "tcp") {
        std::fprintf(stderr, "bad --transport (socketpair|tcp): %s\n",
                     transport.c_str());
        return 1;
      }
    } else if (std::strncmp(argv[i], "--listen=", 9) == 0) {
      listen = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--external-workers") == 0) {
      external_workers = true;
    } else if (std::strncmp(argv[i], "--chaos-net=", 12) == 0) {
      chaos_net = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--serve=", 8) == 0) {
      serve_port = std::strtol(argv[i] + 8, nullptr, 10);
      if (serve_port < 0 || serve_port > 65535) {
        std::fprintf(stderr, "bad --serve port: %s\n", argv[i] + 8);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--progress=", 11) == 0) {
      const auto mode = obs::ParseProgressMode(argv[i] + 11);
      if (!mode) {
        std::fprintf(stderr, "bad --progress mode: %s\n", argv[i] + 11);
        return 1;
      }
      progress_mode = *mode;
      progress_set = true;
    } else if (std::strncmp(argv[i], "--log-level=", 12) == 0) {
      const auto level = obs::ParseLogLevel(argv[i] + 12);
      if (!level) {
        std::fprintf(stderr, "bad --log-level: %s\n", argv[i] + 12);
        return 1;
      }
      log_level = *level;
      log_level_set = true;
    } else if (std::strncmp(argv[i], "--log-json=", 11) == 0) {
      log_json = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--kernel=", 9) == 0) {
      kernel = argv[i] + 9;
      if (kernel != "scalar" && kernel != "avx2" && kernel != "neon") {
        std::fprintf(stderr, "bad --kernel (scalar|avx2|neon): %s\n",
                     kernel.c_str());
        return 1;
      }
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "%s", usage);
      return 1;
    } else if (config_path == nullptr) {
      config_path = argv[i];
    } else {
      std::fprintf(stderr, "%s", usage);
      return 1;
    }
  }
  if (config_path != nullptr) {
    std::string error;
    const auto loaded = pipeline::LoadConfigFile(config_path, &error);
    if (!loaded) {
      std::fprintf(stderr, "config error: %s\n", error.c_str());
      return 1;
    }
    config = *loaded;
  } else {
    // Demo configuration.
    config.datasets = {"ILI", "NASDAQ"};
    config.methods = {"SeasonalNaive", "VAR", "LinearRegression", "NLinear"};
    config.horizons = {12};
    config.train_epochs = 10;
  }
  if (resume && config.journal.empty()) {
    std::fprintf(stderr,
                 "--resume needs a `journal = <path>` key in the config\n");
    return 1;
  }
  // Pin the GEMM dispatch path before any compute runs. A valid name that
  // this host cannot run falls back to scalar (the portable baseline) —
  // results are bit-identical on every path, so only speed is affected.
  if (kernel.empty()) kernel = config.kernel;
  if (!kernel.empty()) {
    if (!linalg::kernel::SetKernelPathByName(kernel)) {
      std::fprintf(stderr,
                   "kernel path %s unavailable on this host; using scalar\n",
                   kernel.c_str());
      linalg::kernel::SetKernelPath(linalg::kernel::KernelPath::kScalar);
    }
    std::printf("gemm kernel path: %s\n",
                linalg::kernel::KernelPathName(
                    linalg::kernel::ActiveKernelPath()));
  }
  if (trace_out.empty()) trace_out = config.trace_out;
  if (metrics_out.empty()) metrics_out = config.metrics_out;
  if (!log_level_set) log_level = config.log_level;
  if (log_json.empty()) log_json = config.log_json;
  if (!progress_set) progress_mode = config.progress;
  const std::uint16_t port =
      serve_port >= 0 ? static_cast<std::uint16_t>(serve_port)
                      : static_cast<std::uint16_t>(config.serve_port);
  // Serving /metrics implies collecting them.
  if (!trace_out.empty() || !metrics_out.empty() || port != 0) {
    obs::SetEnabled(true);
    if (!trace_out.empty()) obs::DefaultTracer().Enable();
  }
  obs::DefaultLogger().SetLevel(log_level);
  if (!log_json.empty() && !obs::DefaultLogger().OpenJsonlSink(log_json)) {
    std::fprintf(stderr, "cannot open --log-json sink %s\n", log_json.c_str());
    return 1;
  }
  const std::string run_id = MakeRunId();
  obs::HttpExporter exporter({.port = port, .run_id = run_id});
  if (port != 0) {
    const base::Status status = exporter.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "--serve failed: %s\n",
                   status.ToString().c_str());
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
  runner_options.verbose = progress_mode == obs::ProgressMode::kOff;
  runner_options.progress = progress_mode;
  if (isolation_forced) runner_options.isolation = isolation;
  if (runner_options.isolation == pipeline::Isolation::kProcess) {
    std::printf("process isolation: on (memory_limit_mb=%zu, "
                "cpu_limit_seconds=%g)\n",
                runner_options.memory_limit_mb,
                runner_options.cpu_limit_seconds);
  }
  const std::size_t effective_workers =
      workers >= 0 ? static_cast<std::size_t>(workers) : config.workers;
  std::vector<pipeline::ResultRow> rows;
  if (effective_workers > 0) {
    pipeline::ShardOptions shard_options;
    shard_options.num_workers = effective_workers;
    shard_options.shard_size = config.shard_size;
    if (chaos_kill_worker >= 0) {
      shard_options.fault_kill_worker = static_cast<int>(chaos_kill_worker);
    }
    // CLI flags override the transport/listen/chaos config keys.
    if (transport.empty()) transport = config.transport;
    if (listen.empty() && (config.listen_host != "127.0.0.1" ||
                           config.listen_port != 0)) {
      listen = config.listen_host + ":" + std::to_string(config.listen_port);
    }
    if (chaos_net.empty()) chaos_net = config.chaos_net;
    if (transport == "tcp") {
      shard_options.transport = pipeline::ShardTransport::kTcp;
      shard_options.spawn_workers =
          !(external_workers || config.external_workers);
    }
    if (!listen.empty()) {
      const std::size_t colon = listen.find_last_of(':');
      shard_options.listen_host =
          colon == std::string::npos ? listen : listen.substr(0, colon);
      if (colon != std::string::npos) {
        const long p = std::strtol(listen.c_str() + colon + 1, nullptr, 10);
        if (p < 0 || p > 65535) {
          std::fprintf(stderr, "bad --listen port in %s\n", listen.c_str());
          return 1;
        }
        shard_options.listen_port = static_cast<std::uint16_t>(p);
      }
    }
    if (!chaos_net.empty()) {
      std::string chaos_error;
      const auto plan = pipeline::ParseFaultPlan(chaos_net, &chaos_error);
      if (!plan) {
        std::fprintf(stderr, "bad --chaos-net: %s\n", chaos_error.c_str());
        return 1;
      }
      shard_options.chaos = *plan;
      std::printf("network chaos: %s\n",
                  pipeline::FaultPlanToString(*plan).c_str());
    }
    pipeline::ShardCoordinator coordinator(runner_options, shard_options);
    if (shard_options.transport == pipeline::ShardTransport::kTcp) {
      std::string bind_error;
      if (!coordinator.BindListener(&bind_error)) {
        std::fprintf(stderr, "--listen failed: %s\n", bind_error.c_str());
        return 1;
      }
      std::printf("sharded execution: %zu workers over tcp %s:%u%s\n",
                  effective_workers, shard_options.listen_host.c_str(),
                  static_cast<unsigned>(coordinator.listen_port()),
                  shard_options.spawn_workers
                      ? ""
                      : " (waiting for external tfb_worker processes)");
    } else {
      std::printf("sharded execution: %zu worker processes\n",
                  effective_workers);
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
