#ifndef TFB_PIPELINE_SHARD_H_
#define TFB_PIPELINE_SHARD_H_

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tfb/pipeline/runner.h"
#include "tfb/pipeline/transport.h"

/// \file
/// Sharded multi-process benchmark execution with a crash-tolerant
/// coordinator (`--workers=N`; DESIGN.md "Sharded execution" has the full
/// story). The pending task grid is cut into shards of consecutive tasks,
/// handed out over framed, CRC-checked connections (transport.h) as
/// workers go idle, over one of two transports: forked children on an
/// inherited socketpair (default; tasks need no marshalling), or TCP
/// (`--transport=tcp`), where tasks travel in TASK frames and workers may
/// be external `tfb_worker` processes (`spawn_workers=false`).
///
/// Every decision lives in one syscall-free, clock-free state machine,
/// ShardCore (shard_core.h): lease epochs that fence stale rows, the
/// death-or-drop verdict on a lost connection (a worker death burns a
/// shard attempt; a network drop re-queues for free), poison splitting and
/// quarantine, the refill of rows a DONE claims but never delivered,
/// drain, and ShardRunStats. ShardCoordinator::Run is a thin poll shell
/// around it: one event loop over the sockets, the shutdown self-pipe and
/// one pidfd per forked child, executing the core's actions and mirroring
/// its stats into the `tfb_shard_*` / `tfb_transport_*` counters and the
/// /status "shard" object in one place.
///
/// Durability: workers hold no journal. The coordinator writes it the way
/// BenchmarkRunner does: each accepted row is appended (AppendJournal,
/// journal.h) before its task counts as done, at most once per task and
/// run, and nothing else touches the file — no temporary files, no
/// rewrite, and no disk at all without a journal. Lines land in completion
/// order; `--resume` adopts the newest row per cell through JournalIndex,
/// like every other executor. SIGINT/SIGTERM drain the run; a second
/// signal kills the workers.

namespace tfb::pipeline {

/// Which transport carries coordinator<->worker frames.
enum class ShardTransport {
  kSocketpair,  ///< Forked children, inherited grid (single-host).
  kTcp,         ///< Listen + connect; tasks marshalled (multi-host-shaped).
};

/// Knobs of the sharded executor. The fault_* members are test/chaos hooks
/// (used by pipeline_shard_test, bench_shard_scaling and the CI smoke jobs)
/// that inject deterministic failure without touching task content — rows
/// stay byte-identical to a clean run.
struct ShardOptions {
  /// Worker processes to run concurrently. 1 is a valid (and measurable)
  /// degenerate case: one child executes every shard.
  std::size_t num_workers = 2;
  /// Tasks per shard; 0 = auto (~pending/(4*workers), clamped to [1, 32]):
  /// small enough that work-stealing balances uneven task costs and a death
  /// re-runs little, large enough to amortize the dispatch round-trip.
  std::size_t shard_size = 0;
  /// Worker heartbeat period, seconds. A dedicated thread in each worker
  /// beats even while a task computes, so a long task is not a dead worker.
  double heartbeat_seconds = 0.25;
  /// Silence window after which a connection is declared dead. A silent
  /// socketpair worker is SIGKILLed (it is wedged — e.g. SIGSTOP — and can
  /// never recover); a silent TCP connection is closed and fenced, because
  /// the worker may be alive behind a partition and allowed to reconnect.
  double heartbeat_timeout_seconds = 10.0;
  /// Dispatch attempts before a dying shard is split (size > 1) or its last
  /// task is quarantined with a CRASHED row (size == 1). Only worker
  /// *deaths* burn attempts; connection drops re-queue for free.
  std::size_t max_shard_attempts = 2;
  /// Total worker spawns allowed, replacements included; 0 = auto
  /// (4 * num_workers). When the budget is exhausted and no worker
  /// survives, leftover tasks get INTERNAL rows (not journaled, so a
  /// resume retries them).
  std::size_t max_total_spawns = 0;

  /// Transport selection (see ShardTransport).
  ShardTransport transport = ShardTransport::kSocketpair;
  /// TCP listen endpoint; port 0 binds an ephemeral port (recover it with
  /// ShardCoordinator::listen_port() after BindListener()).
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;
  /// Under transport=tcp: fork num_workers local processes that connect
  /// over loopback (the single-command path, and what replacement spawns
  /// use). false = external workers only (`tfb_worker --connect=...`);
  /// the coordinator then just listens and never forks.
  bool spawn_workers = true;

  /// Deterministic worker-side network-fault injection (`--chaos-net`),
  /// applied by forked workers to their send path. External tfb_worker
  /// processes carry their own --chaos-net flag instead.
  FaultPlan chaos;

  /// Fault hook: the worker with this spawn index kills itself with
  /// fault_kill_signal after completing fault_kill_after_tasks tasks
  /// (-1 = disabled). SIGKILL exercises the EOF death path; SIGSTOP the
  /// heartbeat-timeout path. Spawn indices count every spawn, so a
  /// replacement worker never re-triggers a lower index's fault.
  int fault_kill_worker = -1;
  std::size_t fault_kill_after_tasks = 1;
  int fault_kill_signal = SIGKILL;
  /// Fault hook: the coordinator drains (as if SIGTERM) after this many
  /// task completions; 0 = disabled. For deterministic drain/resume tests.
  std::size_t fault_drain_after_tasks = 0;
};

/// What happened during one sharded run (also mirrored to obs metrics and
/// the /status "shard" object).
struct ShardRunStats {
  std::size_t workers_spawned = 0;   ///< Including replacements.
  std::size_t worker_deaths = 0;     ///< Process deaths (EOF + heartbeat).
  std::size_t heartbeat_kills = 0;   ///< Deaths declared by missed beats.
  std::size_t shards_dispatched = 0; ///< Grants, re-dispatches included.
  std::size_t redispatches = 0;      ///< Shards re-queued (death or drop).
  std::size_t shard_splits = 0;      ///< Poison-isolating splits.
  std::size_t quarantined = 0;       ///< Tasks given CRASHED rows.
  bool interrupted = false;          ///< Drained early (signal or hook).
  bool spawn_budget_exhausted = false;

  // Transport health (all zero under a fault-free socketpair run).
  std::size_t connections = 0;        ///< Worker connections welcomed.
  std::size_t reconnects = 0;         ///< HELLOs carrying a previous epoch.
  std::size_t disconnects = 0;        ///< Connection losses without a death.
  std::size_t fenced_completions = 0; ///< Stale-epoch rows rejected.
  std::size_t corrupt_frames = 0;     ///< Framing/CRC/protocol kills.
};

/// Multi-process grid executor; the sharded counterpart of
/// BenchmarkRunner::Run with the same row/journal/resume semantics.
class ShardCoordinator {
 public:
  ShardCoordinator(const RunnerOptions& runner_options,
                   const ShardOptions& shard_options)
      : runner_options_(runner_options), shard_options_(shard_options) {}

  /// Under transport=tcp: binds the listen socket now, so the (possibly
  /// ephemeral) port is known before Run() blocks — tests and external
  /// workers need it. Run() calls this itself when not already bound.
  /// Returns false (with *error set) on bind failure; no-op under
  /// socketpair.
  bool BindListener(std::string* error = nullptr);

  /// The bound TCP listen port (after BindListener), else 0.
  std::uint16_t listen_port() const;

  /// Runs all tasks across the worker fleet; rows come back in task order,
  /// exactly as from BenchmarkRunner::Run. Installs SIGINT/SIGTERM drain
  /// handlers for its duration (restoring the previous ones). Not
  /// reentrant: one sharded run per process at a time.
  std::vector<ResultRow> Run(const std::vector<BenchmarkTask>& tasks);

  /// Stats of the last Run().
  const ShardRunStats& stats() const { return stats_; }

 private:
  RunnerOptions runner_options_;
  ShardOptions shard_options_;
  ShardRunStats stats_;
  std::unique_ptr<TcpListener> listener_;
};

}  // namespace tfb::pipeline

#endif  // TFB_PIPELINE_SHARD_H_
