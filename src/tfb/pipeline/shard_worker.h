#ifndef TFB_PIPELINE_SHARD_WORKER_H_
#define TFB_PIPELINE_SHARD_WORKER_H_

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "tfb/pipeline/runner.h"
#include "tfb/pipeline/transport.h"

/// \file
/// The worker side of the sharded executor: one protocol loop shared by
/// fork()ed socketpair children and (local or remote) TCP workers. The
/// worker is pure compute + transport — it writes no file; every finished
/// row travels back in a ROW frame and the *coordinator* appends it to the
/// journal before marking the task done.
///
/// Conversation (framed; see transport.h):
///   worker  -> HELLO "<version> <prev_epoch> <pid>"
///   coord   -> WELCOME "<epoch> <heartbeat_s>\n<runner-options blob>"
///   coord   -> TASK "<slot>\n<task blob>"    (TCP workers only)
///   coord   -> GRANT "<shard> <slot>..."
///   worker  -> START "<epoch> <slot>", ROW "<epoch> <slot> ...\n<row>",
///              DONE "<epoch> <shard>", HEARTBEAT "<epoch>" (side thread)
///   coord   -> QUIT
///
/// A TCP worker that loses its connection reconnects, re-sends HELLO
/// carrying the previous lease epoch, replays the retained ROW frames of its
/// unfinished shard (still tagged with the old epoch — the coordinator
/// fences them, proving the lease machinery), abandons that shard, and
/// waits for fresh grants. A refused reconnect means the coordinator has
/// stopped listening (it is shutting down), so the worker exits at once.
/// Other connect failures, and every failure before the first connection,
/// are retried with exponential backoff (50 ms doubling to a 2 s cap) until
/// 10 attempts in a row have failed. A socketpair worker cannot reconnect;
/// a lost socket means the coordinator is gone and the worker exits.

namespace tfb::pipeline {

/// Knobs of one worker process (inherited by forked workers; external
/// `tfb_worker` processes fill them from their own CLI).
struct WorkerLoopConfig {
  /// Spawn ordinal, for the fault_kill_* hooks (forked workers only).
  std::size_t spawn_index = 0;

  /// Fault hook (see ShardOptions): raise fault_kill_signal after
  /// completing fault_kill_after_tasks tasks when spawn_index matches.
  int fault_kill_worker = -1;
  std::size_t fault_kill_after_tasks = 1;
  int fault_kill_signal = SIGKILL;

  /// Fallback heartbeat period until WELCOME overrides it.
  double heartbeat_seconds = 0.25;

  /// Deterministic send-path fault injection (chaos tests / --chaos-net).
  FaultPlan chaos;
};

/// Runs the worker protocol over an already-connected socketpair descriptor
/// inside a fork()ed child that inherited the whole task grid (so tasks
/// never need marshalling — the path that keeps `custom_candidates` tasks
/// runnable). Returns the process exit code; never reconnects.
int RunSocketpairWorker(int fd, const WorkerLoopConfig& config,
                        const std::vector<BenchmarkTask>& tasks);

/// A TCP worker endpoint (`tfb_worker --connect=HOST:PORT`, and the local
/// loopback workers the coordinator forks under transport=tcp).
struct TcpWorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  WorkerLoopConfig loop;
};

/// Connects (with backoff), runs the worker protocol, reconnects on
/// connection loss, and returns the process exit code: 0 after QUIT, 1
/// when the coordinator is gone (a reconnect refused, or the connect budget
/// exhausted). Tasks arrive via TASK frames — nothing is inherited.
int RunTcpShardWorker(const TcpWorkerOptions& options);

}  // namespace tfb::pipeline

#endif  // TFB_PIPELINE_SHARD_WORKER_H_
