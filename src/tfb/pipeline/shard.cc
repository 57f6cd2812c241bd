#include "tfb/pipeline/shard.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tfb/base/status.h"
#include "tfb/obs/log.h"
#include "tfb/obs/metrics.h"
#include "tfb/obs/progress.h"
#include "tfb/obs/rusage.h"
#include "tfb/obs/trace.h"
#include "tfb/pipeline/journal.h"
#include "tfb/pipeline/shard_core.h"
#include "tfb/pipeline/shard_worker.h"
#include "tfb/pipeline/telemetry.h"
#include "tfb/pipeline/wire.h"

namespace tfb::pipeline {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Shutdown self-pipe. Signal handlers may only write() one byte — the
// coordinator's poll loop turns queued bytes into drain (1) or hard kill
// (2+). The pipe is process-lifetime: the first sharded run opens it
// before installing the SIGINT/SIGTERM handlers.

std::atomic<int> g_shutdown_wfd{-1};
int g_shutdown_rfd = -1;

extern "C" void TfbShardShutdownHandler(int /*signo*/) {
  const int fd = g_shutdown_wfd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    const ssize_t n = write(fd, &byte, 1);
    (void)n;  // A full pipe already holds a pending wakeup.
  }
}

void EnsureShutdownPipe() {
  if (g_shutdown_wfd.load(std::memory_order_relaxed) >= 0) return;
  int fds[2];
  if (pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) return;
  g_shutdown_rfd = fds[0];
  g_shutdown_wfd.store(fds[1], std::memory_order_release);
}

std::size_t DrainShutdownPipe() {
  if (g_shutdown_rfd < 0) return 0;
  std::size_t total = 0;
  char buf[64];
  ssize_t n;
  while ((n = read(g_shutdown_rfd, buf, sizeof(buf))) > 0) {
    total += static_cast<std::size_t>(n);
  }
  return total;
}

// One fork()ed worker process as the shell sees it. The pidfd makes its
// exit pollable, so the loop wakes the instant a worker is gone; where
// pidfd_open is unavailable it is -1 and the poll timeout stands in.
struct ChildProcess {
  pid_t pid = -1;
  int pidfd = -1;
};

// The counters ShardRunStats mirrors; Run bumps them by stats deltas in one
// place, so a counter and its field cannot drift apart.
constexpr std::pair<const char*, std::size_t ShardRunStats::*> kMirrored[] = {
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
    {"tfb_transport_corrupt_frames_total", &ShardRunStats::corrupt_frames},
};

}  // namespace

bool ShardCoordinator::BindListener(std::string* error) {
  if (shard_options_.transport != ShardTransport::kTcp) return true;
  if (listener_ != nullptr) return true;
  listener_ = TcpListener::Listen(shard_options_.listen_host,
                                  shard_options_.listen_port, error);
  if (listener_ == nullptr) return false;
  fcntl(listener_->fd(), F_SETFL, O_NONBLOCK);
  return true;
}

std::uint16_t ShardCoordinator::listen_port() const {
  return listener_ != nullptr ? listener_->port() : 0;
}

std::vector<ResultRow> ShardCoordinator::Run(
    const std::vector<BenchmarkTask>& tasks) {
  stats_ = ShardRunStats{};
  const std::size_t total = tasks.size();
  std::vector<ResultRow> rows(total);
  const bool observed = obs::Enabled();
  obs::Registry& registry = obs::DefaultRegistry();
  obs::ProgressTracker& tracker = obs::DefaultProgressTracker();

  const bool tcp = shard_options_.transport == ShardTransport::kTcp;
  const char* transport_name = tcp ? "tcp" : "socketpair";

  if (tcp) {
    std::string error;
    if (!BindListener(&error)) {
      obs::DefaultLogger().Error("shard: cannot bind TCP listener",
                                 {{"error", error}});
      for (std::size_t slot = 0; slot < total; ++slot) {
        rows[slot] = ErrorRow(tasks[slot], base::Status::Internal(
                                               "shard listener bind failed: " +
                                               error));
      }
      return rows;
    }
  }

  // --- Resume: adopt the journal's newest row for every task it answers ---
  const std::string& journal_path = runner_options_.journal_path;
  std::vector<bool> done(total, false);  // Adopted or accepted rows.
  std::size_t resumed = 0;
  if (runner_options_.resume && !journal_path.empty()) {
    resumed = JournalIndex::Load(journal_path)
                  .Adopt(tasks, runner_options_.verbose, &rows, &done);
  }
  std::vector<std::size_t> pending;
  pending.reserve(total);
  std::vector<std::size_t> unmarshallable;
  for (std::size_t slot = 0; slot < total; ++slot) {
    if (done[slot]) continue;
    if (tcp && !TaskIsMarshallable(tasks[slot])) {
      // A task built around in-memory factories cannot cross the wire;
      // reject it up front (not journaled — a socketpair resume can still
      // execute it) instead of corrupting dispatch.
      rows[slot] = ErrorRow(tasks[slot],
                            base::Status::Internal(
                                "task with custom candidates cannot be "
                                "marshalled over the tcp transport"));
      rows[slot].note = "rejected by shard coordinator (not marshallable)";
      unmarshallable.push_back(slot);
    } else {
      pending.push_back(slot);
    }
  }

  tracker.SetDisplay(runner_options_.progress);
  tracker.BeginRun(total, resumed);
  for (const std::size_t slot : unmarshallable) {
    tracker.TaskFinished(tasks[slot].method, /*ok=*/false,
                         /*used_fallback=*/false, 0.0);
  }

  // One trace identity for the whole run; every dispatch executes under it
  // and every worker batch echoes it back.
  const std::uint64_t run_trace_id =
      (static_cast<std::uint64_t>(getpid()) << 32) ^
      static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
  // With observability on, WELCOME asks every worker to collect spans and
  // metric deltas and ship them back (telemetry.h).
  ShardCore core(tasks, pending, shard_options_, runner_options_, observed,
                 run_trace_id);
  JournalOptions journal_options;
  journal_options.fsync_each_row = runner_options_.journal_fsync;
  std::map<std::uint64_t, std::unique_ptr<Transport>> links;  // By conn id.
  std::vector<ChildProcess> children;
  double worker_cpu_seconds = 0.0;
  double worker_peak_rss_mb = 0.0;
  ShardRunStats mirrored;
  std::size_t mirrored_tasks = 0;
  const std::string connect_host = shard_options_.listen_host == "0.0.0.0"
                                       ? "127.0.0.1"
                                       : shard_options_.listen_host;

  auto make_loop_config = [&](std::size_t spawn_index) {
    WorkerLoopConfig cfg;
    cfg.spawn_index = spawn_index;
    cfg.fault_kill_worker = shard_options_.fault_kill_worker;
    cfg.fault_kill_after_tasks = shard_options_.fault_kill_after_tasks;
    cfg.fault_kill_signal = shard_options_.fault_kill_signal;
    cfg.heartbeat_seconds = shard_options_.heartbeat_seconds;
    cfg.chaos = shard_options_.chaos;
    return cfg;
  };

  // Forks worker `spawn_index`; -1 on failure. Forked children inherit
  // every coordinator-side descriptor; keeping a sibling's fd open would
  // mask its EOF forever, and an inherited listener would keep the port
  // alive past the coordinator.
  auto fork_worker = [&](std::size_t spawn_index) -> pid_t {
    const std::uint16_t port = listen_port();
    int fds[2] = {-1, -1};
    if (!tcp && socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return -1;
    const pid_t pid = fork();
    if (pid == 0) {
      for (const auto& [id, link] : links) close(link->fd());
      if (listener_ != nullptr) listener_->Close();
      if (!tcp) {
        close(fds[0]);
        _exit(RunSocketpairWorker(fds[1], make_loop_config(spawn_index),
                                  tasks));
      }
      TcpWorkerOptions worker_options;
      worker_options.host = connect_host;
      worker_options.port = port;
      worker_options.loop = make_loop_config(spawn_index);
      _exit(RunTcpShardWorker(worker_options));
    }
    if (!tcp) {
      close(fds[1]);
      if (pid < 0) {
        close(fds[0]);
        return -1;
      }
      fcntl(fds[0], F_SETFL, O_NONBLOCK);
      fcntl(fds[0], F_SETFD, FD_CLOEXEC);
      links[core.OnConnect(pid, obs::TraceNowMicros())] = MakeFdTransport(
          fds[0], "socketpair:" + std::to_string(spawn_index));
    }
    if (pid > 0) {
      int pidfd = -1;
#ifdef SYS_pidfd_open
      pidfd = static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
#endif
      children.push_back(ChildProcess{pid, pidfd});
    }
    return pid;
  };

  // Executes the core's actions in order; the results of the ones that can
  // fail go straight back to the core as events.
  std::function<void(ShardActions)> execute = [&](ShardActions actions) {
    for (const ShardAction& a : actions) {
      switch (a.kind) {
        case ShardAction::Kind::kSend: {
          const auto it = links.find(a.conn);
          if (it != links.end() && !it->second->Send(a.frame)) {
            execute(core.OnEof(a.conn, obs::TraceNowMicros()));
          }
          break;
        }
        case ShardAction::Kind::kClose:
          links.erase(a.conn);  // The transport closes on destruction.
          break;
        case ShardAction::Kind::kSpawn:
          execute(core.OnSpawned(a.spawn_index, fork_worker(a.spawn_index),
                                 obs::TraceNowMicros()));
          break;
        case ShardAction::Kind::kKill:
          kill(static_cast<pid_t>(a.pid), SIGKILL);
          break;
        case ShardAction::Kind::kAppend: {
          // The runner's write rule: append the row, then keep it. Without
          // a journal there is nothing to append.
          const bool ok = journal_path.empty() ||
                          AppendJournal(journal_path, a.row, journal_options);
          if (ok) {
            rows[a.slot] = a.row;
            done[a.slot] = true;
          }
          execute(core.OnAppended(a, ok));
          break;
        }
        case ShardAction::Kind::kStopListening:
          // A worker mid-reconnect then gets ECONNREFUSED and exits at
          // once instead of lingering.
          if (listener_ != nullptr) listener_.reset();
          break;
        case ShardAction::Kind::kTaskStarted:
          tracker.TaskStarted();
          break;
        case ShardAction::Kind::kTaskFinished:
          tracker.TaskFinished(tasks[a.slot].method, a.ok, a.fallback,
                               a.seconds);
          break;
        case ShardAction::Kind::kTaskAbandoned:
          tracker.TaskAbandoned();
          break;
        case ShardAction::Kind::kTelemetry:
          MergeWorkerTelemetry(a.telemetry, std::to_string(a.telemetry.pid),
                               a.clock_offset_us, &registry,
                               &obs::DefaultTracer());
          break;
        case ShardAction::Kind::kShardSpan:
          if (obs::DefaultTracer().enabled()) {
            obs::DefaultTracer().RecordComplete(
                "shard", "pipeline", a.start_us,
                obs::TraceNowMicros() - a.start_us, a.message);
          }
          break;
        case ShardAction::Kind::kLog:
          obs::DefaultLogger().Log(a.level, a.message, a.fields.data(),
                                   a.fields.data() + a.fields.size());
          break;
      }
    }
  };

  // The one place core stats reach the tfb_shard_* / tfb_transport_*
  // counters, and the /status "shard" object.
  auto publish = [&] {
    const obs::ShardStats status = core.Status(obs::TraceNowMicros());
    tracker.SetShardStats(status);
    if (!observed) return;
    const ShardRunStats& current = core.stats();
    for (const auto& [name, field] : kMirrored) {
      if (current.*field > mirrored.*field) {
        registry.GetCounter(name).Increment(
            static_cast<double>(current.*field - mirrored.*field));
      }
    }
    if (core.tasks_completed() > mirrored_tasks) {
      registry.GetCounter("tfb_shard_tasks_completed_total")
          .Increment(
              static_cast<double>(core.tasks_completed() - mirrored_tasks));
    }
    mirrored = current;
    mirrored_tasks = core.tasks_completed();
    registry.GetGauge("tfb_shard_workers_live")
        .Set(static_cast<double>(status.workers_live));
  };

  // --- Install drain-on-signal for the duration of the run ---
  EnsureShutdownPipe();
  DrainShutdownPipe();  // Clear requests left over from a previous run.
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = TfbShardShutdownHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  struct sigaction old_int, old_term;
  sigaction(SIGINT, &sa, &old_int);
  sigaction(SIGTERM, &sa, &old_term);

  // --- The event loop: poll, turn what happened into core events, execute
  // the core's actions, until the core says every worker is gone ---
  execute(core.OnTick(obs::TraceNowMicros()));
  publish();
  std::vector<Frame> frames;
  while (!core.finished()) {
    std::vector<pollfd> pfds;
    pfds.push_back({g_shutdown_rfd, POLLIN, 0});
    if (listener_ != nullptr) pfds.push_back({listener_->fd(), POLLIN, 0});
    for (const auto& [id, link] : links) {
      pfds.push_back({link->fd(), POLLIN, 0});
    }
    for (const ChildProcess& child : children) {
      if (child.pidfd >= 0) pfds.push_back({child.pidfd, POLLIN, 0});
    }
    poll(pfds.data(), pfds.size(), 100);

    for (std::size_t n = DrainShutdownPipe(); n > 0; --n) {
      execute(core.OnShutdownRequest(obs::TraceNowMicros()));
    }
    while (listener_ != nullptr) {
      std::unique_ptr<Transport> t = listener_->Accept();
      if (t == nullptr) break;
      fcntl(t->fd(), F_SETFL, O_NONBLOCK);
      fcntl(t->fd(), F_SETFD, FD_CLOEXEC);
      links[core.OnConnect(-1, obs::TraceNowMicros())] = std::move(t);
    }
    // One read per connection and round, so a floody one cannot starve
    // the rest.
    std::vector<std::uint64_t> ids;
    for (const auto& [id, link] : links) ids.push_back(id);
    for (const std::uint64_t id : ids) {
      if (links.count(id) == 0) continue;  // Closed by an earlier event.
      frames.clear();
      const Transport::RecvResult r = links[id]->Recv(&frames, 0);
      const double now = obs::TraceNowMicros();
      if (r == Transport::RecvResult::kCorrupt ||
          r == Transport::RecvResult::kEof ||
          r == Transport::RecvResult::kError) {
        execute(core.OnEof(id, now, r == Transport::RecvResult::kCorrupt));
      }
      for (std::size_t i = 0; i < frames.size() && links.count(id) != 0; ++i) {
        execute(core.OnFrame(id, frames[i], now));
      }
    }
    // The one child-exit path: exact per-child rusage from wait4(2).
    for (std::size_t i = 0; i < children.size();) {
      int status = 0;
      struct rusage usage;
      std::memset(&usage, 0, sizeof(usage));
      const pid_t r = wait4(children[i].pid, &status, WNOHANG, &usage);
      if (r == 0 || (r < 0 && errno == EINTR)) {
        ++i;
        continue;
      }
      const obs::ResourceUsage used = obs::FromRusage(usage);
      const double cpu = used.total_cpu_seconds();
      worker_cpu_seconds += cpu;
      worker_peak_rss_mb = std::max(worker_peak_rss_mb, used.max_rss_mb);
      if (observed) {
        registry.GetCounter("tfb_shard_worker_cpu_seconds_total")
            .Increment(cpu);
        registry.GetGauge("tfb_shard_worker_peak_rss_mb")
            .Set(worker_peak_rss_mb);
      }
      if (children[i].pidfd >= 0) close(children[i].pidfd);
      const pid_t pid = children[i].pid;
      children.erase(children.begin() + static_cast<std::ptrdiff_t>(i));
      execute(core.OnChildExit(pid, status, obs::TraceNowMicros()));
    }
    execute(core.OnTick(obs::TraceNowMicros()));
    publish();
  }
  links.clear();
  listener_.reset();
  sigaction(SIGINT, &old_int, nullptr);
  sigaction(SIGTERM, &old_term, nullptr);
  stats_ = core.stats();
  for (const std::size_t slot : pending) {
    if (done[slot]) continue;
    // Never completed by any worker: an interrupted or starved task.
    // Deliberately NOT journaled, so --resume runs it.
    rows[slot] = ErrorRow(
        tasks[slot],
        stats_.interrupted
            ? base::Status::Aborted("run interrupted before task completed")
            : base::Status::Internal("task not completed by any worker "
                                     "(spawn budget exhausted)"));
  }

  publish();
  tracker.EndRun();
  if (runner_options_.verbose || stats_.worker_deaths > 0 ||
      stats_.disconnects > 0 || stats_.fenced_completions > 0) {
    obs::DefaultLogger().Info(
        "shard run finished",
        {{"transport", transport_name},
         {"workers", std::to_string(shard_options_.num_workers)},
         {"spawned", std::to_string(stats_.workers_spawned)},
         {"deaths", std::to_string(stats_.worker_deaths)},
         {"redispatches", std::to_string(stats_.redispatches)},
         {"splits", std::to_string(stats_.shard_splits)},
         {"quarantined", std::to_string(stats_.quarantined)},
         {"reconnects", std::to_string(stats_.reconnects)},
         {"disconnects", std::to_string(stats_.disconnects)},
         {"fenced", std::to_string(stats_.fenced_completions)},
         {"corrupt_frames", std::to_string(stats_.corrupt_frames)},
         {"worker_cpu_s",
          [&] {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.2f", worker_cpu_seconds);
            return std::string(buf);
          }()}});
  }
  return rows;
}

}  // namespace tfb::pipeline
