// Sharded multi-process execution: crash-tolerant coordinator, worker
// death recovery (socket EOF and heartbeat loss), poison-task quarantine,
// drain + resume, and the append-only journal that makes resume safe
// across any coordinator/worker crash combination.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault_injection.h"
#include "tfb/obs/metrics.h"
#include "tfb/obs/progress.h"
#include "tfb/pipeline/journal.h"
#include "tfb/pipeline/runner.h"
#include "tfb/pipeline/shard.h"
#include "tfb/pipeline/shard_worker.h"
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

std::vector<BenchmarkTask> SmallGrid() {
  std::vector<BenchmarkTask> tasks;
  for (const char* method :
       {"Naive", "SeasonalNaive", "Drift", "Mean", "LinearRegression"}) {
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

ResultRow Canonicalized(ResultRow row) {
  row.fit_seconds = 0.0;
  row.inference_ms_per_window = 0.0;
  row.cpu_user_seconds = 0.0;
  row.cpu_sys_seconds = 0.0;
  row.peak_rss_mb = 0.0;
  return row;
}

void ExpectIdenticalRows(const std::vector<ResultRow>& a,
                         const std::vector<ResultRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(JournalLine(Canonicalized(a[i])), JournalLine(Canonicalized(b[i])))
        << "row " << i;
  }
}

// Per task, the row the journal answers it with: what a resume adopts.
// Sharded lines land in completion order, so journals are compared through
// the index, not by file position.
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

std::string TempPath(const std::string& stem) {
  return testing::TempDir() + stem + "." + std::to_string(getpid()) +
         ".jsonl";
}

TEST(Shard, MatchesSingleProcessRowByRow) {
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  RunnerOptions options;  // No journal: the run touches no disk.
  const auto single = BenchmarkRunner(options).Run(tasks);

  ShardOptions shard_options;
  shard_options.num_workers = 2;
  ShardCoordinator coordinator(options, shard_options);
  const auto sharded = coordinator.Run(tasks);

  ExpectIdenticalRows(single, sharded);
  EXPECT_EQ(coordinator.stats().worker_deaths, 0u);
  EXPECT_FALSE(coordinator.stats().interrupted);
}

// Worker-death handling is transport-independent: every case below runs
// over the inherited socketpair and over TCP loopback.
class ShardOverTransport : public testing::TestWithParam<ShardTransport> {};

INSTANTIATE_TEST_SUITE_P(
    Transports, ShardOverTransport,
    testing::Values(ShardTransport::kSocketpair, ShardTransport::kTcp),
    [](const testing::TestParamInfo<ShardTransport>& info) {
      return info.param == ShardTransport::kTcp ? "tcp" : "socketpair";
    });

TEST_P(ShardOverTransport, WorkerKillMidRunRecovers) {
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  RunnerOptions options;
  const auto single = BenchmarkRunner(options).Run(tasks);

  // One worker, so the one that dies surely gets work: with two, a fast
  // sibling can finish the grid before the first says HELLO.
  ShardOptions shard_options;
  shard_options.transport = GetParam();
  shard_options.num_workers = 1;
  shard_options.shard_size = 2;
  shard_options.fault_kill_worker = 0;  // First spawn dies after one task.
  shard_options.fault_kill_after_tasks = 1;
  ShardCoordinator coordinator(options, shard_options);
  const auto sharded = coordinator.Run(tasks);

  // The kill is external to the task (SIGKILL between tasks), so every row
  // — including the re-dispatched remainder — is byte-identical.
  ExpectIdenticalRows(single, sharded);
  const ShardRunStats& stats = coordinator.stats();
  EXPECT_GE(stats.worker_deaths, 1u);
  EXPECT_GE(stats.redispatches, 1u);
  EXPECT_GE(stats.workers_spawned, 2u);  // 1 initial + >=1 replacement.
  EXPECT_EQ(stats.quarantined, 0u);

  // Worker liveness and deaths are visible on /status via the tracker.
  const obs::ShardStats shard_stats =
      obs::DefaultProgressTracker().GetShardStats();
  EXPECT_TRUE(shard_stats.enabled);
  EXPECT_GE(shard_stats.worker_deaths, 1u);
  const std::string status =
      obs::DefaultProgressTracker().StatusJson("shard-test");
  EXPECT_NE(status.find("\"shard\":{"), std::string::npos) << status;
  EXPECT_NE(status.find("\"worker_deaths\":"), std::string::npos) << status;
}

TEST_P(ShardOverTransport, KilledWorkerIsADeathNotADrop) {
  // One worker holds the whole grid as one shard and is SIGKILLed after
  // its first task. Its EOF and its exit race each other; whichever the
  // coordinator sees first, the verdict must be a death: with one attempt
  // allowed, the shard splits (never a free, attempt-refunding re-queue
  // booked as a network drop).
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const auto single = BenchmarkRunner(RunnerOptions{}).Run(tasks);
  for (int rep = 0; rep < 30; ++rep) {
    ShardOptions shard_options;
    shard_options.transport = GetParam();
    shard_options.num_workers = 1;
    shard_options.shard_size = tasks.size();
    shard_options.fault_kill_worker = 0;
    shard_options.fault_kill_after_tasks = 1;
    shard_options.max_shard_attempts = 1;
    ShardCoordinator coordinator(RunnerOptions{}, shard_options);
    const auto sharded = coordinator.Run(tasks);
    ExpectIdenticalRows(single, sharded);
    const ShardRunStats& stats = coordinator.stats();
    EXPECT_EQ(stats.worker_deaths, 1u) << "rep " << rep;
    EXPECT_EQ(stats.shard_splits, 1u) << "rep " << rep;
    EXPECT_EQ(stats.disconnects, 0u) << "rep " << rep;
    EXPECT_EQ(stats.quarantined, 0u) << "rep " << rep;
  }
}

// Every tfb_shard_* / tfb_transport_* counter moves by exactly its
// ShardRunStats field over a run: a worker kill (deaths, respawns,
// re-dispatch) and a TCP chaos-drop run (connections, reconnects,
// disconnects) between them exercise every non-zero field.
TEST_P(ShardOverTransport, ObsCountersMirrorRunStats) {
  const std::vector<std::pair<const char*, std::size_t ShardRunStats::*>>
      mirrored = {
          {"tfb_shard_workers_spawned_total", &ShardRunStats::workers_spawned},
          {"tfb_shard_worker_deaths_total", &ShardRunStats::worker_deaths},
          {"tfb_shard_heartbeat_kills_total", &ShardRunStats::heartbeat_kills},
          {"tfb_shard_dispatch_total", &ShardRunStats::shards_dispatched},
          {"tfb_shard_redispatch_total", &ShardRunStats::redispatches},
          {"tfb_shard_splits_total", &ShardRunStats::shard_splits},
          {"tfb_shard_quarantined_total", &ShardRunStats::quarantined},
          {"tfb_transport_connections_total", &ShardRunStats::connections},
          {"tfb_transport_reconnects_total", &ShardRunStats::reconnects},
          {"tfb_transport_disconnects_total", &ShardRunStats::disconnects},
          {"tfb_transport_fenced_completions_total",
           &ShardRunStats::fenced_completions},
          {"tfb_transport_corrupt_frames_total",
           &ShardRunStats::corrupt_frames},
      };
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  ShardOptions shard_options;
  shard_options.transport = GetParam();
  shard_options.num_workers = 1;  // The first spawn surely gets work.
  shard_options.shard_size = 2;
  if (GetParam() == ShardTransport::kTcp) {
    shard_options.chaos.drop = 0.25;
    shard_options.chaos.seed = 5;
  } else {
    shard_options.fault_kill_worker = 0;
    shard_options.fault_kill_after_tasks = 1;
  }
  obs::Registry& registry = obs::DefaultRegistry();
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  std::vector<double> before;
  for (const auto& [name, field] : mirrored) {
    before.push_back(registry.GetCounter(name).Value());
  }
  const double tasks_before =
      registry.GetCounter("tfb_shard_tasks_completed_total").Value();
  ShardCoordinator coordinator(RunnerOptions{}, shard_options);
  coordinator.Run(tasks);
  obs::SetEnabled(was_enabled);

  const ShardRunStats& stats = coordinator.stats();
  for (std::size_t i = 0; i < mirrored.size(); ++i) {
    EXPECT_EQ(registry.GetCounter(mirrored[i].first).Value() - before[i],
              static_cast<double>(stats.*mirrored[i].second))
        << mirrored[i].first;
  }
  EXPECT_EQ(
      registry.GetCounter("tfb_shard_tasks_completed_total").Value() -
          tasks_before,
      static_cast<double>(tasks.size()));
  if (GetParam() == ShardTransport::kTcp) {
    EXPECT_GE(stats.disconnects, 1u);
    EXPECT_GE(stats.reconnects, 1u);
  } else {
    EXPECT_GE(stats.worker_deaths, 1u);
  }
}

TEST(Shard, HeartbeatTimeoutRecoversWedgedWorker) {
  // SIGSTOP freezes the worker without closing its socket: only the
  // heartbeat timeout can catch it. Generous timeout budget so a loaded
  // CI machine does not false-positive the healthy replacement. One
  // worker, so the one that wedges surely gets work: with two, a fast
  // sibling can finish the grid before the first says HELLO.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  RunnerOptions options;
  const auto single = BenchmarkRunner(options).Run(tasks);

  ShardOptions shard_options;
  shard_options.num_workers = 1;
  shard_options.shard_size = 2;
  shard_options.heartbeat_seconds = 0.05;
  shard_options.heartbeat_timeout_seconds = 1.0;
  shard_options.fault_kill_worker = 0;
  shard_options.fault_kill_after_tasks = 1;
  shard_options.fault_kill_signal = SIGSTOP;
  ShardCoordinator coordinator(options, shard_options);
  const auto sharded = coordinator.Run(tasks);

  ExpectIdenticalRows(single, sharded);
  EXPECT_GE(coordinator.stats().heartbeat_kills, 1u);
  EXPECT_GE(coordinator.stats().worker_deaths, 1u);
}

TEST(Shard, PoisonTaskIsQuarantinedHealthyTasksComplete) {
  // One task _exit()s its worker from inside Fit (after sleeping past the
  // heartbeat interval — the worker was observably alive and mid-task).
  // In-process isolation means the fault takes the whole worker down; the
  // coordinator must re-dispatch, give up, quarantine, and still finish
  // every healthy task.
  std::vector<BenchmarkTask> tasks = SmallGrid();
  methods::FaultSpec poison;
  poison.kind = methods::FaultSpec::Kind::kHangThenCrash;
  poison.sleep_ms = 150.0;  // > heartbeat_seconds below.
  poison.exit_code = 7;
  BenchmarkTask poison_task;
  poison_task.dataset = "synthetic";
  poison_task.series = SmallSeasonal(300, 7);
  poison_task.method = "PoisonPill";
  poison_task.horizon = 6;
  poison_task.custom_candidates.push_back(
      {"PoisonPill", methods::MakeFaultyFactory(poison)});
  tasks.insert(tasks.begin() + 3, std::move(poison_task));

  RunnerOptions options;  // kInProcess: the fault kills the worker.
  ShardOptions shard_options;
  shard_options.num_workers = 2;
  shard_options.shard_size = 2;  // Poison shares a shard with a victim.
  shard_options.heartbeat_seconds = 0.05;
  shard_options.max_shard_attempts = 2;
  shard_options.max_total_spawns = 16;
  ShardCoordinator coordinator(options, shard_options);
  const auto rows = coordinator.Run(tasks);

  ASSERT_EQ(rows.size(), tasks.size());
  const ShardRunStats& stats = coordinator.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_GE(stats.worker_deaths, 2u);  // At least: initial + retry.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].method == "PoisonPill") {
      EXPECT_FALSE(rows[i].ok);
      EXPECT_NE(rows[i].error.find("CRASHED"), std::string::npos)
          << rows[i].error;
      EXPECT_NE(rows[i].error.find("quarantined"), std::string::npos)
          << rows[i].error;
    } else {
      EXPECT_TRUE(rows[i].ok) << rows[i].method << ": " << rows[i].error;
    }
  }
}

TEST(Shard, DrainInterruptsThenResumeCompletes) {
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const std::string journal = TempPath("shard_drain");
  std::remove(journal.c_str());

  RunnerOptions single_options;
  single_options.num_threads = 1;
  const auto single = BenchmarkRunner(single_options).Run(tasks);

  RunnerOptions options;
  options.journal_path = journal;
  ShardOptions shard_options;
  shard_options.num_workers = 2;
  shard_options.shard_size = 1;
  shard_options.fault_drain_after_tasks = 3;  // As if SIGTERM after 3 rows.
  ShardCoordinator first(options, shard_options);
  const auto interrupted = first.Run(tasks);
  EXPECT_TRUE(first.stats().interrupted);
  ASSERT_EQ(interrupted.size(), tasks.size());
  std::size_t aborted = 0;
  for (const ResultRow& row : interrupted) {
    if (row.error.find("ABORTED") != std::string::npos) ++aborted;
  }
  EXPECT_GE(aborted, 1u);  // Something was left undone...
  const std::vector<ResultRow> journaled = LoadJournal(journal);
  EXPECT_GE(journaled.size(), 3u);  // ...and the finished rows are durable.
  EXPECT_LT(journaled.size(), tasks.size());

  // Resume: only the unfinished remainder runs; the journal holds one line
  // per cell, answering each task like the single-process run.
  options.resume = true;
  ShardOptions clean_options;
  clean_options.num_workers = 2;
  clean_options.shard_size = 1;
  ShardCoordinator second(options, clean_options);
  const auto resumed = second.Run(tasks);
  EXPECT_FALSE(second.stats().interrupted);
  ExpectIdenticalRows(single, resumed);
  EXPECT_EQ(LoadJournal(journal).size(), tasks.size());
  ExpectIdenticalRows(single, JournalAnswers(journal, tasks));
  std::remove(journal.c_str());
}

TEST(Shard, InterruptedRunKeepsEarlierJournalRows) {
  // A run without --resume re-executes cells the journal already holds and
  // appends their rows. Interrupted, it must not take the earlier rows of
  // the cells it did not finish with it, and a resume then adopts every
  // cell without dispatching anything.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const std::string journal = TempPath("shard_interrupted_keeps");
  std::remove(journal.c_str());
  RunnerOptions options;
  options.journal_path = journal;
  const auto earlier = BenchmarkRunner(options).Run(tasks);
  ASSERT_EQ(LoadJournal(journal).size(), tasks.size());

  ShardOptions shard_options;
  shard_options.num_workers = 2;
  shard_options.shard_size = 1;
  shard_options.fault_drain_after_tasks = 3;
  ShardCoordinator interrupted(options, shard_options);
  interrupted.Run(tasks);
  EXPECT_TRUE(interrupted.stats().interrupted);
  std::multiset<std::string> lines;
  for (const ResultRow& row : LoadJournal(journal)) {
    lines.insert(JournalLine(row));
  }
  for (const ResultRow& row : earlier) {
    EXPECT_EQ(lines.count(JournalLine(row)), 1u)
        << row.method << " h" << row.horizon << " lost its earlier row";
  }
  EXPECT_GT(lines.size(), tasks.size());  // The re-executed rows, appended.

  options.resume = true;
  ShardCoordinator resumed(options, ShardOptions{});
  ExpectIdenticalRows(earlier, resumed.Run(tasks));
  EXPECT_EQ(resumed.stats().shards_dispatched, 0u);
  EXPECT_EQ(resumed.stats().workers_spawned, 0u);
  EXPECT_EQ(LoadJournal(journal).size(), lines.size());
  std::remove(journal.c_str());
}

TEST(Shard, CrashedRunJournalResumesAlikeInEveryExecutor) {
  // What a crashed run leaves behind: a journal holding a prefix of the
  // grid, an older and then a newer row for one cell (a re-run without
  // --resume appends), and a torn final line (a writer killed mid-append).
  // An in-process resume and sharded resumes over socketpair and TCP must
  // adopt the same rows verbatim, skip the torn line, and execute exactly
  // the remaining cells, appending one line each.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const auto single = BenchmarkRunner(RunnerOptions{}).Run(tasks);
  constexpr std::size_t kAdopted = 3;    // Cells 0-2 are journaled...
  constexpr std::size_t kPrefixLines = 4;  // ...cell 2 twice.
  ResultRow older = single[2];
  older.note = "older row, superseded";
  for (auto& [metric, value] : older.metrics) value += 1.0;
  std::set<std::string> remaining;
  for (std::size_t i = kAdopted; i < tasks.size(); ++i) {
    remaining.insert(tasks[i].method + " h" + std::to_string(tasks[i].horizon));
  }

  for (const std::string what : {"in_process", "socketpair", "tcp"}) {
    const std::string journal = TempPath("crashed_run_" + what);
    std::remove(journal.c_str());
    ASSERT_TRUE(AppendJournal(journal, single[0]));
    ASSERT_TRUE(AppendJournal(journal, single[1]));
    ASSERT_TRUE(AppendJournal(journal, older));
    ASSERT_TRUE(AppendJournal(journal, single[2]));
    {
      std::ofstream torn(journal, std::ios::app);
      torn << JournalLine(single[3]).substr(0, 25);  // Cut, no newline.
    }
    RunnerOptions options;
    options.journal_path = journal;
    options.resume = true;
    std::vector<ResultRow> rows;
    if (what == "in_process") {
      rows = BenchmarkRunner(options).Run(tasks);
    } else {
      ShardOptions shard_options;
      shard_options.transport = what == "tcp" ? ShardTransport::kTcp
                                              : ShardTransport::kSocketpair;
      shard_options.num_workers = 2;
      rows = ShardCoordinator(options, shard_options).Run(tasks);
    }

    ASSERT_EQ(rows.size(), tasks.size()) << what;
    // Adopted rows come back verbatim, timing fields included.
    for (std::size_t i = 0; i < kAdopted; ++i) {
      EXPECT_EQ(JournalLine(rows[i]), JournalLine(single[i]))
          << what << " row " << i;
    }
    ExpectIdenticalRows(single, rows);
    std::size_t skipped = 0;
    const std::vector<ResultRow> lines = LoadJournal(journal, &skipped);
    EXPECT_EQ(skipped, 1u) << what;  // The torn line, kept but unread.
    ASSERT_EQ(lines.size(), kPrefixLines + remaining.size()) << what;
    std::set<std::string> executed;
    for (std::size_t i = kPrefixLines; i < lines.size(); ++i) {
      executed.insert(lines[i].method + " h" +
                      std::to_string(lines[i].horizon));
    }
    EXPECT_EQ(executed, remaining) << what;
    ExpectIdenticalRows(single, JournalAnswers(journal, tasks));
    std::remove(journal.c_str());
  }
}

// ---------------------------------------------------------------------------
// TCP transport + network-chaos matrix. Every chaos class must complete the
// grid with rows byte-identical to a single-process run — the first
// accepted row of a cell wins and later copies are never appended, so no
// duplicated, fenced, or half-applied row may ever leak into the results,
// no matter how the network misbehaves.

TEST(Shard, TcpMatchesSingleProcessRowByRow) {
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const auto single = BenchmarkRunner(RunnerOptions{}).Run(tasks);

  ShardOptions shard_options;
  shard_options.transport = ShardTransport::kTcp;
  shard_options.num_workers = 2;
  ShardCoordinator coordinator(RunnerOptions{}, shard_options);
  const auto sharded = coordinator.Run(tasks);

  ExpectIdenticalRows(single, sharded);
  const ShardRunStats& stats = coordinator.stats();
  EXPECT_EQ(stats.worker_deaths, 0u);
  EXPECT_GE(stats.connections, 2u);
  // A fault-free loopback run has a quiet transport ledger.
  EXPECT_EQ(stats.disconnects, 0u);
  EXPECT_EQ(stats.reconnects, 0u);
  EXPECT_EQ(stats.fenced_completions, 0u);
  EXPECT_EQ(stats.corrupt_frames, 0u);
}

TEST(Shard, TcpExternalWorkerRunsTheGrid) {
  // spawn_workers=false: the coordinator only listens; the worker is a
  // separate process connecting over loopback — the tfb_worker deployment
  // shape, minus the exec.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const auto single = BenchmarkRunner(RunnerOptions{}).Run(tasks);

  ShardOptions shard_options;
  shard_options.transport = ShardTransport::kTcp;
  shard_options.num_workers = 1;
  shard_options.spawn_workers = false;
  ShardCoordinator coordinator(RunnerOptions{}, shard_options);
  std::string error;
  ASSERT_TRUE(coordinator.BindListener(&error)) << error;
  const std::uint16_t port = coordinator.listen_port();
  ASSERT_GT(port, 0);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    TcpWorkerOptions worker;
    worker.host = "127.0.0.1";
    worker.port = port;
    _exit(RunTcpShardWorker(worker));
  }
  const auto sharded = coordinator.Run(tasks);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "worker status " << status;

  ExpectIdenticalRows(single, sharded);
  EXPECT_EQ(coordinator.stats().workers_spawned, 0u);  // Nothing forked.
  EXPECT_GE(coordinator.stats().connections, 1u);
}

TEST(Shard, TcpWorkerRetriesUntilConnectedThenLeavesWhenRefused) {
  // Before its first connection a worker keeps retrying a refused port:
  // the coordinator may not be listening yet. Once a session has been
  // established, a refused reconnect means the coordinator stopped
  // listening to shut down, and the worker must leave at once instead of
  // backing off through its connect budget (about 11 s, past the
  // coordinator's 5 s quit grace).
  using Clock = std::chrono::steady_clock;
  std::string error;
  auto listener = TcpListener::Listen("127.0.0.1", 0, &error);
  ASSERT_NE(listener, nullptr) << error;
  const std::uint16_t port = listener->port();
  listener->Close();

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    TcpWorkerOptions worker;
    worker.port = port;
    _exit(RunTcpShardWorker(worker));
  }
  // Reaps the worker if it exits within `seconds`; -1 while it still runs.
  auto exit_status_within = [&](double seconds) {
    const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
    do {
      int status = 0;
      if (waitpid(child, &status, WNOHANG) == child) return status;
      usleep(5000);
    } while (Clock::now() < deadline);
    return -1;
  };
  EXPECT_EQ(exit_status_within(0.3), -1) << "gave up before connecting";

  listener = TcpListener::Listen("127.0.0.1", port, &error);
  ASSERT_NE(listener, nullptr) << error;
  std::unique_ptr<Transport> session;
  for (const auto deadline = Clock::now() + std::chrono::seconds(10);
       session == nullptr && Clock::now() < deadline; usleep(5000)) {
    session = listener->Accept();
  }
  ASSERT_NE(session, nullptr) << "worker never connected";
  listener->Close();
  session->Close();

  int status = exit_status_within(3.0);
  if (status == -1) {
    kill(child, SIGKILL);
    waitpid(child, &status, 0);
    FAIL() << "worker still reconnecting 3 s after the listener closed";
  }
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1)
      << "worker status " << status;
}

TEST(Shard, TcpRejectsUnmarshallableTasksWithoutJournalingThem) {
  // A task carrying in-memory custom_candidates cannot cross the wire: the
  // coordinator must pre-reject it with an INTERNAL row — and must NOT
  // journal that row, so a socketpair --resume can still run it.
  std::vector<BenchmarkTask> tasks = SmallGrid();
  BenchmarkTask custom;
  custom.dataset = "synthetic";
  custom.series = SmallSeasonal(300, 7);
  custom.method = "InMemoryOnly";
  custom.horizon = 6;
  custom.custom_candidates.push_back({"InMemoryOnly", nullptr});
  tasks.insert(tasks.begin() + 2, std::move(custom));

  const std::string journal = TempPath("tcp_unmarshallable");
  std::remove(journal.c_str());
  RunnerOptions options;
  options.journal_path = journal;
  ShardOptions shard_options;
  shard_options.transport = ShardTransport::kTcp;
  shard_options.num_workers = 2;
  ShardCoordinator coordinator(options, shard_options);
  const auto rows = coordinator.Run(tasks);

  ASSERT_EQ(rows.size(), tasks.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].method == "InMemoryOnly") {
      EXPECT_FALSE(rows[i].ok);
      EXPECT_NE(rows[i].error.find("marshalled"), std::string::npos)
          << rows[i].error;
    } else {
      EXPECT_TRUE(rows[i].ok) << rows[i].method << ": " << rows[i].error;
    }
  }
  EXPECT_EQ(coordinator.stats().quarantined, 0u);
  EXPECT_EQ(LoadJournal(journal).size(), tasks.size() - 1);
  std::remove(journal.c_str());
}

TEST(Shard, TcpChaosDropRecoversViaReconnect) {
  // Seeded connection drops on the worker send path: shards re-queue for
  // free (no attempt burned — network chaos must never quarantine a healthy
  // task) and workers reconnect under fresh lease epochs.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const auto single = BenchmarkRunner(RunnerOptions{}).Run(tasks);

  ShardOptions shard_options;
  shard_options.transport = ShardTransport::kTcp;
  shard_options.num_workers = 2;
  shard_options.shard_size = 2;
  shard_options.chaos.drop = 0.25;
  shard_options.chaos.seed = 5;
  ShardCoordinator coordinator(RunnerOptions{}, shard_options);
  const auto sharded = coordinator.Run(tasks);

  ExpectIdenticalRows(single, sharded);
  const ShardRunStats& stats = coordinator.stats();
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_GE(stats.disconnects, 1u);
  EXPECT_GE(stats.reconnects, 1u);
}

TEST(Shard, TcpChaosDelayStillCompletesIdentically) {
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const auto single = BenchmarkRunner(RunnerOptions{}).Run(tasks);

  ShardOptions shard_options;
  shard_options.transport = ShardTransport::kTcp;
  shard_options.num_workers = 2;
  shard_options.chaos.delay = 0.5;
  shard_options.chaos.delay_ms = 2.0;
  shard_options.chaos.seed = 6;
  ShardCoordinator coordinator(RunnerOptions{}, shard_options);
  const auto sharded = coordinator.Run(tasks);

  ExpectIdenticalRows(single, sharded);
  EXPECT_EQ(coordinator.stats().quarantined, 0u);
  EXPECT_FALSE(coordinator.stats().interrupted);
}

TEST(Shard, TcpChaosShortWritesAreDiscardedCleanly) {
  // A short write delivers a strict prefix of a frame and drops the
  // connection: the coordinator must discard the torn frame (no partially
  // applied row) and treat it as a plain disconnect.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const auto single = BenchmarkRunner(RunnerOptions{}).Run(tasks);

  ShardOptions shard_options;
  shard_options.transport = ShardTransport::kTcp;
  shard_options.num_workers = 2;
  shard_options.shard_size = 2;
  shard_options.chaos.short_write = 0.2;
  shard_options.chaos.seed = 7;
  ShardCoordinator coordinator(RunnerOptions{}, shard_options);
  const auto sharded = coordinator.Run(tasks);

  ExpectIdenticalRows(single, sharded);
  const ShardRunStats& stats = coordinator.stats();
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_GE(stats.disconnects, 1u);
}

TEST(Shard, TcpChaosCorruptFramesAreDetectedAndFenced) {
  // Flipped bits must be caught by the CRC (counted as corrupt frames),
  // kill the connection, and never surface as a wrong row.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const auto single = BenchmarkRunner(RunnerOptions{}).Run(tasks);

  ShardOptions shard_options;
  shard_options.transport = ShardTransport::kTcp;
  shard_options.num_workers = 2;
  shard_options.shard_size = 2;
  shard_options.chaos.corrupt = 0.2;
  shard_options.chaos.seed = 8;
  ShardCoordinator coordinator(RunnerOptions{}, shard_options);
  const auto sharded = coordinator.Run(tasks);

  ExpectIdenticalRows(single, sharded);
  const ShardRunStats& stats = coordinator.stats();
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_GE(stats.corrupt_frames, 1u);
}

TEST(Shard, TcpPartitionFencesStaleLeaseRows) {
  // Deterministic partition scenario: one worker, a two-task shard, and a
  // blackhole opening after 3 data frames (HELLO, START#0, ROW#0 pass).
  // The worker finishes both tasks into the void; the coordinator's
  // heartbeat timeout fences the lease and re-queues the remainder. On
  // reconnect the worker replays both retained rows under the old epoch —
  // each must be fenced (slot 0's accepted copy already won; slot 1's
  // lease was revoked) — and then re-runs the remainder under the new
  // epoch. Final rows: byte-identical, nothing duplicated.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const auto single = BenchmarkRunner(RunnerOptions{}).Run(tasks);

  ShardOptions shard_options;
  shard_options.transport = ShardTransport::kTcp;
  shard_options.num_workers = 1;
  shard_options.shard_size = 2;
  shard_options.heartbeat_seconds = 0.05;
  shard_options.heartbeat_timeout_seconds = 1.0;
  shard_options.chaos.partition_after = 3;
  shard_options.chaos.partition_frames = 1000;  // Dark until reconnect.
  shard_options.chaos.seed = 9;
  ShardCoordinator coordinator(RunnerOptions{}, shard_options);
  const auto sharded = coordinator.Run(tasks);

  ExpectIdenticalRows(single, sharded);
  const ShardRunStats& stats = coordinator.stats();
  EXPECT_GE(stats.fenced_completions, 1u);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GE(stats.disconnects, 1u);
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST(Shard, TcpPartialPartitionRequeuesSwallowedRows) {
  // A partition that heals mid-shard: one worker, two-task shards, and a
  // blackhole over frames 7..10 — exactly the second shard's two
  // START/ROW pairs (HELLO=1, then S,R,S,R,D per shard). The rows vanish
  // but the trailing DONE sails through on the healed link. The
  // coordinator must notice the DONE covers slots it never received and
  // re-queue them as a fresh shard; without that check both sides would
  // idle forever (heartbeats flowing, nothing timing out).
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const auto single = BenchmarkRunner(RunnerOptions{}).Run(tasks);

  ShardOptions shard_options;
  shard_options.transport = ShardTransport::kTcp;
  shard_options.num_workers = 1;
  shard_options.shard_size = 2;
  shard_options.heartbeat_seconds = 0.05;
  shard_options.chaos.partition_after = 6;
  shard_options.chaos.partition_frames = 4;
  shard_options.chaos.seed = 10;
  ShardCoordinator coordinator(RunnerOptions{}, shard_options);
  const auto sharded = coordinator.Run(tasks);

  ExpectIdenticalRows(single, sharded);
  const ShardRunStats& stats = coordinator.stats();
  EXPECT_GE(stats.redispatches, 1u);
  EXPECT_EQ(stats.worker_deaths, 0u);
  EXPECT_EQ(stats.disconnects, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST(Shard, TcpSwallowedDoneIsResentWhileIdle) {
  // The mirror case: the partition swallows exactly the first shard's
  // DONE (frame 6) and heals. Every row arrived, so nothing is missing —
  // but the coordinator still considers the shard in-flight and the
  // worker considers it finished. The idle worker must resend the DONE
  // (idempotent on the coordinator) to close the shard; the run then
  // completes with no disconnects and no recomputation.
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const auto single = BenchmarkRunner(RunnerOptions{}).Run(tasks);

  ShardOptions shard_options;
  shard_options.transport = ShardTransport::kTcp;
  shard_options.num_workers = 1;
  shard_options.shard_size = 2;
  shard_options.heartbeat_seconds = 0.05;
  shard_options.chaos.partition_after = 5;
  shard_options.chaos.partition_frames = 1;
  shard_options.chaos.seed = 11;
  ShardCoordinator coordinator(RunnerOptions{}, shard_options);
  const auto sharded = coordinator.Run(tasks);

  ExpectIdenticalRows(single, sharded);
  const ShardRunStats& stats = coordinator.stats();
  EXPECT_EQ(stats.worker_deaths, 0u);
  EXPECT_EQ(stats.disconnects, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST(Shard, SingleWorkerDegenerateCaseWorks) {
  const std::vector<BenchmarkTask> tasks = SmallGrid();
  const auto single = BenchmarkRunner(RunnerOptions{}).Run(tasks);
  ShardOptions shard_options;
  shard_options.num_workers = 1;
  ShardCoordinator coordinator(RunnerOptions{}, shard_options);
  ExpectIdenticalRows(single, coordinator.Run(tasks));
}

}  // namespace
}  // namespace tfb::pipeline
