#ifndef TFB_PIPELINE_SHARD_CORE_H_
#define TFB_PIPELINE_SHARD_CORE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tfb/base/status.h"
#include "tfb/obs/log.h"
#include "tfb/obs/progress.h"
#include "tfb/pipeline/runner.h"
#include "tfb/pipeline/shard.h"
#include "tfb/pipeline/telemetry.h"
#include "tfb/pipeline/transport.h"

/// \file
/// The protocol core of the sharded coordinator (shard.h; DESIGN.md "Core
/// and shell"). It makes no system call and reads no clock: every event
/// carries the shell's `now` (trace-clock microseconds) and returns the
/// actions the shell must execute, in order; the results of actions that
/// can fail come back as events (OnSpawned, OnAppended, OnEof for a failed
/// send). Every accepted row is one kAppend, emitted only for a slot that
/// is neither done nor already being appended, so no slot reaches the
/// journal twice in one run; the core names no file (the shell owns the
/// journal path). tests/shard_core_sim_test.cc drives it through seeded
/// interleavings.

namespace tfb::pipeline {

/// One decision of the core, executed by the shell.
struct ShardAction {
  enum class Kind {
    kSend,           ///< frame -> conn.
    kClose,          ///< Close conn's transport (the core forgot it).
    kSpawn,          ///< Fork worker spawn_index; answer with OnSpawned.
    kKill,           ///< SIGKILL pid.
    kAppend,         ///< Journal row; answer with OnAppended.
    kStopListening,  ///< Close the TCP listener.
    kTaskStarted,    ///< Progress tracker events.
    kTaskFinished,
    kTaskAbandoned,
    kTelemetry,      ///< Merge a worker's telemetry batch.
    kShardSpan,      ///< Trace span [start_us, now) of one shard; message =
                     ///< its args JSON.
    kLog,            ///< level, message, fields.
  };
  Kind kind = Kind::kLog;
  std::uint64_t conn = 0;  ///< 0 = no connection (quarantine row).
  std::int64_t pid = -1;
  std::size_t spawn_index = 0;
  std::size_t slot = 0;
  Frame frame;
  ResultRow row;
  bool ok = false;        ///< kTaskFinished / kAppend: the ROW's ok flag,
  bool fallback = false;  ///< its used_fallback flag
  double seconds = 0.0;   ///< and the task's seconds.
  double start_us = 0.0;  ///< kShardSpan: when the shard was granted.
  WorkerTelemetry telemetry;     ///< kTelemetry: the batch to merge and
  double clock_offset_us = 0.0;  ///< the sender's estimated clock offset.
  obs::LogLevel level = obs::LogLevel::kInfo;
  std::string message;
  std::vector<obs::LogField> fields;
};
using ShardActions = std::vector<ShardAction>;

/// The failed row of `task` that no worker produced (quarantined, rejected,
/// interrupted or starved).
ResultRow ErrorRow(const BenchmarkTask& task, const base::Status& status);

class ShardCore {
 public:
  /// `pending` lists the slots of `tasks` to run, ascending; `tasks` must
  /// outlive the core. `telemetry` asks workers to ship obs data back.
  ShardCore(const std::vector<BenchmarkTask>& tasks,
            std::vector<std::size_t> pending, const ShardOptions& options,
            const RunnerOptions& runner_options, bool telemetry,
            std::uint64_t trace_id);

  /// A new transport: accepted (pid -1) or a forked socketpair child's.
  std::uint64_t OnConnect(std::int64_t pid, double now_us);
  ShardActions OnSpawned(std::size_t spawn_index, std::int64_t pid,
                         double now_us);  ///< pid < 0: the fork failed.
  ShardActions OnFrame(std::uint64_t conn, const Frame& frame, double now_us);
  /// EOF, socket error or failed send; `corrupt`: an undecodable stream.
  ShardActions OnEof(std::uint64_t conn, double now_us, bool corrupt = false);
  /// `ok`: the kAppend's row reached the journal (or there is none).
  ShardActions OnAppended(const ShardAction& append, bool ok);
  ShardActions OnChildExit(std::int64_t pid, int status, double now_us);
  ShardActions OnShutdownRequest(double now_us);
  ShardActions OnTick(double now_us);

  /// Every worker is gone and every connection closed: Run may return.
  bool finished() const { return phase_ == Phase::kFinished; }
  const ShardRunStats& stats() const { return stats_; }
  std::size_t tasks_completed() const { return executed_; }
  obs::ShardStats Status(double now_us) const;

 private:
  struct Shard {
    std::size_t id = 0;
    std::vector<std::size_t> slots;  // Ascending.
    std::size_t attempts = 0;        // Death-burning dispatches.
  };
  // One worker connection, the unit a lease epoch belongs to.
  struct Conn {
    // kAwaitingVerdict: lost, but whether its worker died is not known yet.
    enum class State { kOpen, kAwaitingVerdict, kClosed };
    std::uint64_t id = 0;
    State state = State::kOpen;
    std::int64_t pid = -1;
    double last_seen_us = 0.0;
    double verdict_deadline_us = 0.0;
    std::uint64_t epoch = 0;  // 0 until WELCOME.
    bool quit_sent = false;
    bool has_shard = false;
    Shard shard;
    std::unordered_set<std::size_t> started;
    std::size_t pings_sent = 0;
    std::vector<PingSample> ping_samples;
    double clock_offset_us = 0.0;
    double grant_start_us = 0.0;
  };
  // One forked worker process.
  struct Child {
    std::int64_t pid = -1;
    std::size_t spawn_index = 0;
    bool exited = false;
    bool quit_expected = false;  // QUIT sent: its exit is not a death.
    bool heartbeat_killed = false;
  };
  enum class Phase { kRunning, kShuttingDown, kFinished };
  // Why a connection is torn down: the peer closed it, it fell silent past
  // the heartbeat timeout, or the coordinator fenced it (bad frame, failed
  // append, hard shutdown).
  enum class Loss { kEof, kSilent, kFenced };

  ShardActions Flush();
  ShardAction& Emit(ShardAction::Kind kind) {
    out_.emplace_back().kind = kind;
    return out_.back();
  }
  void Send(const Conn& c, FrameType type, std::string payload);
  void Log(obs::LogLevel level, std::string message,
           std::vector<obs::LogField> fields);
  void Close(Conn& c);
  void KillLiveChildren();
  Conn* Find(std::uint64_t conn);  // Open connections only.
  Child* FindChild(std::int64_t pid);
  std::size_t InFlight() const;  // Open connections holding a shard.
  void SpawnWorker();
  void Welcome(Conn& c, std::uint64_t prev_epoch, std::uint64_t pid);
  void Grant(Conn& c);
  void SendPing(Conn& c);
  bool MergeTelemetry(const Conn& c, std::string_view blob);
  const char* ProcessFrame(Conn& c, const Frame& frame);
  void Violation(Conn& c, const char* what);
  void Lose(Conn& c, Loss why);
  void Resolve(Conn& c, bool death);
  void Quarantine(std::size_t slot, std::size_t deaths);
  void BeginShutdown();
  void Advance();

  const std::vector<BenchmarkTask>& tasks_;
  const std::vector<std::size_t> pending_;
  const ShardOptions options_;
  const std::size_t workers_;
  const bool tcp_;  // Workers inherit nothing and may reconnect.
  const bool spawning_;
  const std::size_t max_spawns_;
  const std::string options_blob_;
  const bool telemetry_;
  const std::uint64_t trace_id_;

  ShardActions out_;
  double now_us_ = 0.0;
  Phase phase_ = Phase::kRunning;
  ShardRunStats stats_;
  std::deque<Shard> queue_;
  std::size_t next_shard_id_ = 0;
  std::size_t shards_total_ = 0;
  std::size_t shards_completed_ = 0;
  std::vector<bool> done_;
  std::vector<bool> appending_;  // kAppend emitted, OnAppended not yet seen.
  std::size_t resolved_ = 0;  // Pending slots finished or quarantined.
  std::size_t executed_ = 0;  // Rows accepted.
  std::size_t shutdown_requests_ = 0;
  bool draining_ = false;
  bool hard_killed_ = false;
  bool last_spawn_failed_ = false;
  bool grace_expired_ = false;
  double shutdown_deadline_us_ = 0.0;
  std::size_t spawns_in_flight_ = 0;
  std::size_t live_children_ = 0;
  std::uint64_t next_conn_ = 1;
  std::uint64_t next_epoch_ = 1;
  std::map<std::uint64_t, Conn> conns_;  // By id: accept order.
  std::vector<Child> children_;
  // Per worker pid: the last applied telemetry batch and the usage it
  // reported.
  std::unordered_map<std::uint64_t,
                     std::pair<std::uint64_t, obs::ShardStats::WorkerStatus>>
      fleet_;
};

}  // namespace tfb::pipeline

#endif  // TFB_PIPELINE_SHARD_CORE_H_
