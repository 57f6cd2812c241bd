// Determinism and resource-accounting tests for the pipeline runner.
//
// The benchmark's headline fairness claim depends on runs being
// reproducible: the same grid must produce the same numbers whether it runs
// on 1 thread or 4, in-process or sandboxed. "Metrics aside" here means the
// observability fields — wall/CPU timings and peak RSS vary run to run, so
// the comparison canonicalizes them to zero and then demands byte-identical
// journal lines.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tfb/linalg/gemm.h"
#include "tfb/obs/http_exporter.h"
#include "tfb/obs/metrics.h"
#include "tfb/obs/trace.h"
#include "tfb/parallel/thread_pool.h"
#include "tfb/pipeline/journal.h"
#include "tfb/pipeline/runner.h"
#include "tfb/pipeline/shard.h"
#include "tfb/proc/sandbox.h"
#include "tfb/stats/rng.h"

namespace tfb::pipeline {
namespace {

ts::TimeSeries SmallSeasonal(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t t = 0; t < n; ++t) {
    x[t] = 3.0 * std::sin(2.0 * M_PI * static_cast<double>(t) / 12.0) +
           rng.Gaussian(0.0, 0.3);
  }
  ts::TimeSeries s = ts::TimeSeries::Univariate(std::move(x));
  s.set_seasonal_period(12);
  s.set_name("synthetic");
  return s;
}

// Baselines plus the ML paradigm. The tree ensembles carry per-fit split
// search buffers, so every mode below also checks that those leak no state
// across threads, processes or transports.
std::vector<BenchmarkTask> SmallGrid() {
  std::vector<BenchmarkTask> tasks;
  for (const char* method : {"Naive", "SeasonalNaive", "Drift", "Mean",
                             "LinearRegression", "RandomForest", "XGB"}) {
    for (const std::size_t horizon : {std::size_t{6}, std::size_t{12}}) {
      BenchmarkTask task;
      task.dataset = "synthetic";
      task.series = SmallSeasonal(300, 7);
      task.method = method;
      task.horizon = horizon;
      tasks.push_back(std::move(task));
    }
  }
  return tasks;
}

/// Strips the run-dependent observability fields so that what remains is
/// exactly the scientific content of a row.
ResultRow Canonicalized(ResultRow row) {
  row.fit_seconds = 0.0;
  row.inference_ms_per_window = 0.0;
  row.cpu_user_seconds = 0.0;
  row.cpu_sys_seconds = 0.0;
  row.peak_rss_mb = 0.0;
  return row;
}

std::vector<std::string> CanonicalLines(const std::vector<ResultRow>& rows) {
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const ResultRow& row : rows) {
    lines.push_back(JournalLine(Canonicalized(row)));
  }
  return lines;
}

void ExpectIdenticalRows(const std::vector<ResultRow>& a,
                         const std::vector<ResultRow>& b) {
  const std::vector<std::string> lines_a = CanonicalLines(a);
  const std::vector<std::string> lines_b = CanonicalLines(b);
  ASSERT_EQ(lines_a.size(), lines_b.size());
  for (std::size_t i = 0; i < lines_a.size(); ++i) {
    EXPECT_EQ(lines_a[i], lines_b[i]) << "row " << i;
  }
}

// Per task, the row the journal answers it with: what a resume adopts.
// Sharded and multi-threaded runs append in completion order, so journals
// are compared through the index, not by file position.
std::vector<ResultRow> JournalAnswers(const std::string& journal,
                                      const std::vector<BenchmarkTask>& tasks) {
  const JournalIndex index = JournalIndex::Load(journal);
  std::vector<ResultRow> rows;
  for (const BenchmarkTask& task : tasks) {
    const ResultRow* row = index.Find(task);
    rows.push_back(row != nullptr ? *row : ResultRow{});
  }
  return rows;
}

// Both journals hold exactly one line per task, and answer every task with
// the same row, canonicalized.
void ExpectJournalsAgree(const std::string& reference,
                         const std::string& journal,
                         const std::vector<BenchmarkTask>& tasks) {
  EXPECT_EQ(LoadJournal(reference).size(), tasks.size());
  EXPECT_EQ(LoadJournal(journal).size(), tasks.size());
  ExpectIdenticalRows(JournalAnswers(reference, tasks),
                      JournalAnswers(journal, tasks));
}

TEST(Determinism, ParallelMatchesSequentialInProcess) {
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  RunnerOptions seq;
  seq.num_threads = 1;
  RunnerOptions par;
  par.num_threads = 4;
  const auto rows_seq = BenchmarkRunner(seq).Run(tasks);
  const auto rows_par = BenchmarkRunner(par).Run(tasks);
  ExpectIdenticalRows(rows_seq, rows_par);
}

TEST(Determinism, ParallelMatchesSequentialProcessIsolated) {
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  RunnerOptions seq;
  seq.num_threads = 1;
  seq.isolation = Isolation::kProcess;
  RunnerOptions par;
  par.num_threads = 4;
  par.isolation = Isolation::kProcess;
  const auto rows_seq = BenchmarkRunner(seq).Run(tasks);
  const auto rows_par = BenchmarkRunner(par).Run(tasks);
  ExpectIdenticalRows(rows_seq, rows_par);
}

TEST(Determinism, IsolationModesAgreeOnScience) {
  // The sandbox must not change results, only failure semantics.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  RunnerOptions in_process;
  RunnerOptions sandboxed;
  sandboxed.isolation = Isolation::kProcess;
  const auto rows_in = BenchmarkRunner(in_process).Run(tasks);
  const auto rows_sb = BenchmarkRunner(sandboxed).Run(tasks);
  ExpectIdenticalRows(rows_in, rows_sb);
}

TEST(Determinism, KernelThreadCountDoesNotPerturbResults) {
  // The compute-kernel pool's ParallelFor is static-partitioned: every
  // output element is computed whole by exactly one worker, so resizing
  // the pool must leave every journal byte unchanged. The grid includes a
  // DL method so the blocked GEMM actually runs inside training.
  std::vector<BenchmarkTask> tasks = SmallGrid();
  {
    BenchmarkTask task;
    task.dataset = "synthetic";
    task.series = SmallSeasonal(300, 7);
    task.method = "DLinear";
    task.horizon = 12;
    tasks.push_back(std::move(task));
  }
  parallel::ThreadPool& pool = parallel::ThreadPool::Default();
  pool.Resize(0);  // 1 lane: every kernel runs inline
  const auto rows_one = BenchmarkRunner().Run(tasks);
  pool.Resize(7);  // 8 lanes
  const auto rows_eight = BenchmarkRunner().Run(tasks);
  pool.Resize(parallel::HardwareThreads() - 1);
  // Guard against a vacuous pass: the DL task must actually have trained.
  ASSERT_FALSE(rows_one.empty());
  ASSERT_TRUE(rows_one.back().ok) << rows_one.back().error;
  ExpectIdenticalRows(rows_one, rows_eight);
}

TEST(Determinism, KernelDispatchPathDoesNotPerturbResults) {
  // The SIMD micro-kernel dispatch must be invisible in the science: the
  // same grid run on the forced-scalar path and on the best path this host
  // offers (avx2/neon where compiled+supported, otherwise scalar again)
  // yields byte-identical journal rows. The grid includes a DL method so
  // GEMM and GemmBatch actually run inside training.
  std::vector<BenchmarkTask> tasks = SmallGrid();
  {
    BenchmarkTask task;
    task.dataset = "synthetic";
    task.series = SmallSeasonal(300, 7);
    task.method = "DLinear";
    task.horizon = 12;
    tasks.push_back(std::move(task));
  }
  const linalg::kernel::KernelPath original =
      linalg::kernel::ActiveKernelPath();
  ASSERT_TRUE(
      linalg::kernel::SetKernelPath(linalg::kernel::KernelPath::kScalar));
  const auto rows_scalar = BenchmarkRunner().Run(tasks);
  linalg::kernel::KernelPath best = linalg::kernel::KernelPath::kScalar;
  for (linalg::kernel::KernelPath p : {linalg::kernel::KernelPath::kAvx2,
                                       linalg::kernel::KernelPath::kNeon}) {
    if (linalg::kernel::KernelPathAvailable(p)) best = p;
  }
  ASSERT_TRUE(linalg::kernel::SetKernelPath(best));
  const auto rows_best = BenchmarkRunner().Run(tasks);
  linalg::kernel::SetKernelPath(original);
  ASSERT_FALSE(rows_scalar.empty());
  ASSERT_TRUE(rows_scalar.back().ok) << rows_scalar.back().error;
  ExpectIdenticalRows(rows_scalar, rows_best);
}

TEST(Determinism, ObservabilityDoesNotPerturbResults) {
  // Turning tracing/metrics on must never change the science.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(false);
  const auto rows_off = BenchmarkRunner().Run(tasks);
  obs::SetEnabled(true);
  const auto rows_on = BenchmarkRunner().Run(tasks);
  obs::SetEnabled(was_enabled);
  ExpectIdenticalRows(rows_off, rows_on);
}

TEST(Determinism, LiveTelemetryDoesNotPerturbResults) {
  // The full telemetry stack — HTTP endpoint being scraped continuously,
  // progress tracker fed by the runner — against a quiet baseline run:
  // rows must stay byte-identical (the /status and /metrics handlers only
  // read, never influence, the pipeline).
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const bool was_enabled = obs::Enabled();

  obs::SetEnabled(false);
  const auto rows_quiet = BenchmarkRunner().Run(tasks);

  obs::SetEnabled(true);
  obs::HttpExporter exporter({.run_id = "determinism-test"});
  ASSERT_TRUE(exporter.Start().ok());
  std::atomic<bool> stop{false};
  std::thread scraper([&exporter, &stop] {
    std::string body;
    while (!stop.load(std::memory_order_relaxed)) {
      obs::HttpGet(exporter.port(), "/status", &body);
      obs::HttpGet(exporter.port(), "/metrics", &body);
    }
  });
  RunnerOptions telemetry;
  telemetry.num_threads = 2;
  telemetry.progress = obs::ProgressMode::kOff;  // No terminal noise.
  const auto rows_live = BenchmarkRunner(telemetry).Run(tasks);
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  exporter.Stop();
  obs::SetEnabled(was_enabled);

  ExpectIdenticalRows(rows_quiet, rows_live);
}

TEST(Determinism, ShardedJournalMatchesSingleProcessDespiteKillAndResume) {
  // The sharded executor's headline invariant: the multi-worker journal
  // holds one line per cell and answers every task with the row a
  // single-process run journals (canonicalized timings aside) — across 4
  // workers, a worker killed mid-run, an interrupted (drained) first
  // attempt, and a --resume completion.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const std::string journal_single =
      testing::TempDir() + "determinism_single.jsonl";
  const std::string journal_sharded =
      testing::TempDir() + "determinism_sharded.jsonl";
  std::remove(journal_single.c_str());
  std::remove(journal_sharded.c_str());

  RunnerOptions single_options;
  single_options.num_threads = 1;
  single_options.journal_path = journal_single;
  const auto rows_single = BenchmarkRunner(single_options).Run(tasks);

  RunnerOptions shard_runner_options;
  shard_runner_options.journal_path = journal_sharded;
  ShardOptions first_leg;
  first_leg.num_workers = 4;
  first_leg.shard_size = 1;
  first_leg.fault_kill_worker = 1;  // One worker dies after its first task.
  first_leg.fault_kill_after_tasks = 1;
  first_leg.fault_drain_after_tasks = 5;  // ...and the run is interrupted.
  ShardCoordinator first(shard_runner_options, first_leg);
  first.Run(tasks);
  EXPECT_TRUE(first.stats().interrupted);

  shard_runner_options.resume = true;
  ShardOptions second_leg;
  second_leg.num_workers = 4;
  ShardCoordinator second(shard_runner_options, second_leg);
  const auto rows_sharded = second.Run(tasks);

  ExpectIdenticalRows(rows_single, rows_sharded);
  ExpectJournalsAgree(journal_single, journal_sharded, tasks);
  std::remove(journal_single.c_str());
  std::remove(journal_sharded.c_str());
}

TEST(Determinism, TcpShardedJournalSurvivesKillChaosAndResume) {
  // The same invariant over the TCP transport, under harsher weather:
  // 4 loopback workers, one killed mid-run, deterministic connection drops
  // forcing disconnect/reconnect cycles (stale replayed rows fenced by the
  // lease epochs), an interrupted first leg, and a --resume completion —
  // the journal must still hold one line per cell, answering every task
  // like the single-process run's.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const std::string journal_single =
      testing::TempDir() + "determinism_tcp_single.jsonl";
  const std::string journal_sharded =
      testing::TempDir() + "determinism_tcp_sharded.jsonl";
  std::remove(journal_single.c_str());
  std::remove(journal_sharded.c_str());

  RunnerOptions single_options;
  single_options.num_threads = 1;
  single_options.journal_path = journal_single;
  const auto rows_single = BenchmarkRunner(single_options).Run(tasks);

  RunnerOptions shard_runner_options;
  shard_runner_options.journal_path = journal_sharded;
  ShardOptions first_leg;
  first_leg.transport = ShardTransport::kTcp;
  first_leg.num_workers = 4;
  first_leg.shard_size = 1;
  first_leg.fault_kill_worker = 1;  // One worker dies after its first task.
  first_leg.fault_kill_after_tasks = 1;
  first_leg.fault_drain_after_tasks = 5;  // ...and the run is interrupted.
  first_leg.chaos.drop = 0.1;             // Mild seeded connection drops.
  first_leg.chaos.seed = 11;
  ShardCoordinator first(shard_runner_options, first_leg);
  first.Run(tasks);
  EXPECT_TRUE(first.stats().interrupted);

  shard_runner_options.resume = true;
  ShardOptions second_leg;
  second_leg.transport = ShardTransport::kTcp;
  second_leg.num_workers = 4;
  second_leg.chaos.drop = 0.1;  // Chaos on the resume leg too.
  second_leg.chaos.seed = 12;
  ShardCoordinator second(shard_runner_options, second_leg);
  const auto rows_sharded = second.Run(tasks);

  ExpectIdenticalRows(rows_single, rows_sharded);
  ExpectJournalsAgree(journal_single, journal_sharded, tasks);
  std::remove(journal_single.c_str());
  std::remove(journal_sharded.c_str());
}

TEST(Determinism, TcpTracePropagationLeavesJournalBytesUnchanged) {
  // Distributed observability must be a pure observer: the same TCP sharded
  // run with trace propagation + telemetry shipping fully on (coordinator
  // tracer enabled, workers shipping span/metric batches on DONE frames)
  // journals the same row per task as a telemetry-dark run. And the
  // observing leg must actually observe: the merged trace carries spans
  // from at least two distinct pids (coordinator + workers) and the
  // coordinator registry carries worker-labeled fleet series.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const std::string journal_off = testing::TempDir() + "trace_off.jsonl";
  const std::string journal_on = testing::TempDir() + "trace_on.jsonl";
  std::remove(journal_off.c_str());
  std::remove(journal_on.c_str());
  const bool was_enabled = obs::Enabled();

  obs::SetEnabled(false);
  RunnerOptions off_options;
  off_options.journal_path = journal_off;
  ShardOptions tcp;
  tcp.transport = ShardTransport::kTcp;
  tcp.num_workers = 4;
  const auto rows_off = ShardCoordinator(off_options, tcp).Run(tasks);

  obs::SetEnabled(true);
  obs::DefaultTracer().Enable();
  RunnerOptions on_options;
  on_options.journal_path = journal_on;
  const auto rows_on = ShardCoordinator(on_options, tcp).Run(tasks);
  const std::vector<obs::TraceEvent> trace = obs::DefaultTracer().Snapshot();
  const obs::Registry::Snapshot metrics =
      obs::DefaultRegistry().TakeSnapshot();
  obs::DefaultTracer().Disable();
  obs::SetEnabled(was_enabled);

  ExpectIdenticalRows(rows_off, rows_on);
  ExpectJournalsAgree(journal_off, journal_on, tasks);

  // One merged timeline: coordinator "shard" spans under this process's
  // pid, worker "task" spans stitched in under theirs.
  const std::int64_t coordinator_pid = static_cast<std::int64_t>(getpid());
  std::set<std::int64_t> pids;
  bool saw_shard_span = false;
  bool saw_worker_task = false;
  for (const obs::TraceEvent& e : trace) {
    if (e.phase != 'X') continue;
    pids.insert(e.pid);
    if (std::string(e.name) == "shard" && e.pid == coordinator_pid) {
      saw_shard_span = true;
    }
    if (std::string(e.name) == "task" && e.pid != coordinator_pid) {
      saw_worker_task = true;
    }
  }
  EXPECT_GE(pids.size(), 2u) << "expected coordinator + worker pids";
  EXPECT_TRUE(saw_shard_span);
  EXPECT_TRUE(saw_worker_task);

  // Worker metrics merged under a worker label, fleet gauges published.
  bool saw_worker_series = false;
  for (const auto& [name, value] : metrics.gauges) {
    if (name.rfind("tfb_fleet_worker_tasks{worker=\"", 0) == 0 &&
        value > 0.0) {
      saw_worker_series = true;
    }
  }
  EXPECT_TRUE(saw_worker_series) << "no tfb_fleet_worker_tasks gauge";
  bool saw_worker_counter = false;
  for (const auto& [name, value] : metrics.counters) {
    if (name.find("{worker=\"") != std::string::npos && value > 0.0) {
      saw_worker_counter = true;
    }
  }
  EXPECT_TRUE(saw_worker_counter) << "no worker-labeled counter deltas";

  std::remove(journal_off.c_str());
  std::remove(journal_on.c_str());
}

TEST(Determinism, ResumeAdoptsTheNewestJournaledRowInEveryExecutor) {
  // The runner appends, so a re-run without --resume leaves two rows for
  // one cell, the newer one later in the file. Every executor must resume
  // to that newer row, verbatim (timing fields included), and after a
  // sharded resume the journal's newest-wins view must still answer with it.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const auto fresh = BenchmarkRunner().Run(tasks);
  constexpr std::size_t kTwice = 2;  // The cell journaled twice.
  ResultRow older = fresh[kTwice];
  older.note = "older row, superseded";
  older.fit_seconds += 1.0;
  for (auto& [metric, value] : older.metrics) value += 1.0;

  // Task 0 is left out of the journal, so every resume also executes.
  auto seed_journal = [&](const std::string& path) {
    std::remove(path.c_str());
    ASSERT_TRUE(AppendJournal(path, older));
    for (std::size_t i = 1; i < fresh.size(); ++i) {
      ASSERT_TRUE(AppendJournal(path, fresh[i]));
    }
  };
  auto expect_newest = [&](const std::vector<ResultRow>& rows,
                           const std::string& what) {
    ASSERT_EQ(rows.size(), tasks.size()) << what;
    EXPECT_EQ(JournalLine(Canonicalized(rows[0])),
              JournalLine(Canonicalized(fresh[0])))
        << what;
    for (std::size_t i = 1; i < rows.size(); ++i) {
      EXPECT_EQ(JournalLine(rows[i]), JournalLine(fresh[i]))
          << what << " row " << i;
    }
  };

  for (const Isolation isolation :
       {Isolation::kInProcess, Isolation::kProcess}) {
    const std::string what =
        isolation == Isolation::kProcess ? "process" : "in_process";
    const std::string journal =
        testing::TempDir() + "resume_newest_" + what + ".jsonl";
    seed_journal(journal);
    RunnerOptions options;
    options.isolation = isolation;
    options.journal_path = journal;
    options.resume = true;
    expect_newest(BenchmarkRunner(options).Run(tasks), what);
    std::remove(journal.c_str());
  }

  for (const ShardTransport transport :
       {ShardTransport::kSocketpair, ShardTransport::kTcp}) {
    const std::string what =
        transport == ShardTransport::kTcp ? "tcp" : "socketpair";
    const std::string journal =
        testing::TempDir() + "resume_newest_" + what + ".jsonl";
    seed_journal(journal);
    RunnerOptions options;
    options.journal_path = journal;
    options.resume = true;
    ShardOptions shard;
    shard.transport = transport;
    shard.num_workers = 2;
    expect_newest(ShardCoordinator(options, shard).Run(tasks), what);
    expect_newest(JournalAnswers(journal, tasks), what + " journal");
    std::remove(journal.c_str());
  }
}

TEST(ResourceAccounting, JournalRoundTripsRusageFields) {
  ResultRow row;
  row.dataset = "d";
  row.method = "m";
  row.horizon = 12;
  row.ok = true;
  row.num_windows = 3;
  row.cpu_user_seconds = 0.125;
  row.cpu_sys_seconds = 0.0625;
  row.peak_rss_mb = 42.5;
  row.metrics[eval::Metric::kMae] = 0.5;
  const std::string line = JournalLine(row);
  EXPECT_NE(line.find("\"cpu_user_seconds\":0.125"), std::string::npos)
      << line;
  ResultRow parsed;
  ASSERT_TRUE(ParseJournalLine(line, &parsed)) << line;
  EXPECT_DOUBLE_EQ(parsed.cpu_user_seconds, 0.125);
  EXPECT_DOUBLE_EQ(parsed.cpu_sys_seconds, 0.0625);
  EXPECT_DOUBLE_EQ(parsed.peak_rss_mb, 42.5);
  // Round-trip is bit-exact: re-serializing reproduces the line.
  EXPECT_EQ(JournalLine(parsed), line);
}

TEST(ResourceAccounting, ProcessIsolationReportsChildRusage) {
  BenchmarkTask task;
  task.dataset = "synthetic";
  task.series = SmallSeasonal(300, 9);
  task.method = "LinearRegression";
  task.horizon = 12;
  RunnerOptions options;
  options.isolation = Isolation::kProcess;
  const ResultRow row = BenchmarkRunner(options).RunOne(task);
  ASSERT_TRUE(row.ok) << row.error;
  // wait4() on the reaped child gives exact numbers: a forked process that
  // fit a regression has resident pages and a visible CPU delta.
  EXPECT_GT(row.peak_rss_mb, 0.0);
  EXPECT_GE(row.cpu_user_seconds + row.cpu_sys_seconds, 0.0);
}

TEST(ResourceAccounting, InProcessReportsCpuButNotRss) {
  BenchmarkTask task;
  task.dataset = "synthetic";
  task.series = SmallSeasonal(300, 9);
  task.method = "LinearRegression";
  task.horizon = 12;
  const ResultRow row = BenchmarkRunner().RunOne(task);
  ASSERT_TRUE(row.ok) << row.error;
  // RUSAGE_THREAD deltas: CPU attribution works, RSS cannot be attributed
  // to a single in-process task and must stay 0 (not a bogus number).
  EXPECT_GE(row.cpu_user_seconds, 0.0);
  EXPECT_GE(row.cpu_sys_seconds, 0.0);
  EXPECT_DOUBLE_EQ(row.peak_rss_mb, 0.0);
}

TEST(ResourceAccounting, SandboxResultCarriesUsage) {
  const proc::SandboxResult result = proc::RunInSandbox(
      [] {
        // Touch some memory so the child's high-water mark is visible.
        volatile double sink = 0.0;
        std::vector<double> block(1 << 16, 1.0);
        for (const double v : block) sink = sink + v;
        return std::string("ok");
      },
      proc::SandboxLimits{});
  ASSERT_EQ(result.fate, proc::TaskFate::kOk);
  ASSERT_TRUE(result.has_usage);
  EXPECT_GT(result.usage.max_rss_mb, 0.0);
  EXPECT_GE(result.usage.total_cpu_seconds(), 0.0);
}

}  // namespace
}  // namespace tfb::pipeline
