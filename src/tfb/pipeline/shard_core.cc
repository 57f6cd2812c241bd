#include "tfb/pipeline/shard_core.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "tfb/obs/trace.h"
#include "tfb/pipeline/journal.h"
#include "tfb/pipeline/wire.h"

namespace tfb::pipeline {
namespace {

using Kind = ShardAction::Kind;
using LogLevel = obs::LogLevel;

constexpr double kMicros = 1e6;
// A connection that never says HELLO within this window is not a worker.
constexpr double kHelloTimeoutUs = 10.0 * kMicros;
// Workers get this long to leave after QUIT before they are SIGKILLed.
constexpr double kQuitGraceUs = 5.0 * kMicros;
// Clock-offset probes per connection (see SendPing).
constexpr std::size_t kPingProbes = 3;

}  // namespace

ResultRow ErrorRow(const BenchmarkTask& task, const base::Status& status) {
  ResultRow row;
  row.dataset = task.dataset;
  row.method = task.method;
  row.horizon = task.horizon;
  row.error = status.ToString();
  return row;
}

ShardCore::ShardCore(const std::vector<BenchmarkTask>& tasks,
                     std::vector<std::size_t> pending,
                     const ShardOptions& options,
                     const RunnerOptions& runner_options, bool telemetry,
                     std::uint64_t trace_id)
    : tasks_(tasks),
      pending_(std::move(pending)),
      options_(options),
      workers_(std::max<std::size_t>(1, options.num_workers)),
      tcp_(options.transport == ShardTransport::kTcp),
      spawning_(!tcp_ || options.spawn_workers),
      max_spawns_(options.max_total_spawns > 0 ? options.max_total_spawns
                                               : 4 * workers_),
      options_blob_(SerializeWorkerOptions(runner_options, telemetry)),
      telemetry_(telemetry),
      trace_id_(trace_id),
      done_(tasks.size(), false),
      appending_(tasks.size(), false) {
  const std::size_t shard_size =
      options.shard_size > 0
          ? options.shard_size
          : std::clamp<std::size_t>(pending_.size() / (4 * workers_), 1, 32);
  for (std::size_t i = 0; i < pending_.size(); i += shard_size) {
    const auto first = pending_.begin() + static_cast<std::ptrdiff_t>(i);
    queue_.push_back(Shard{
        next_shard_id_++,
        {first, first + static_cast<std::ptrdiff_t>(
                            std::min(shard_size, pending_.size() - i))},
        0});
  }
  shards_total_ = queue_.size();
}

// ---------------------------------------------------------------------------
// Events.

std::uint64_t ShardCore::OnConnect(std::int64_t pid, double now_us) {
  now_us_ = now_us;
  Conn& c = conns_[next_conn_];
  c.id = next_conn_++;
  c.pid = pid;
  c.last_seen_us = now_us;
  // Too late to work: the worker gets its QUIT right after WELCOME.
  c.quit_sent = phase_ != Phase::kRunning;
  return c.id;
}

ShardActions ShardCore::OnSpawned(std::size_t spawn_index, std::int64_t pid,
                                  double now_us) {
  now_us_ = now_us;
  --spawns_in_flight_;
  last_spawn_failed_ = pid < 0;
  if (pid >= 0) {
    children_.push_back(Child{pid, spawn_index, false, false});
    ++stats_.workers_spawned;
    ++live_children_;
  }
  return Flush();
}

ShardActions ShardCore::OnFrame(std::uint64_t conn, const Frame& frame,
                                double now_us) {
  now_us_ = now_us;
  if (Conn* c = Find(conn)) {
    if (const char* violation = ProcessFrame(*c, frame)) {
      Violation(*c, violation);
    }
  }
  return Flush();
}

ShardActions ShardCore::OnEof(std::uint64_t conn, double now_us,
                                bool corrupt) {
  now_us_ = now_us;
  if (Conn* c = Find(conn)) {
    if (corrupt) {
      Violation(*c, "corrupt frame");
    } else {
      Lose(*c, Loss::kEof);
    }
  }
  return Flush();
}

ShardActions ShardCore::OnAppended(const ShardAction& append, bool ok) {
  if (append.conn == 0) return Flush();  // Quarantine rows are best effort.
  const std::size_t slot = append.slot;
  appending_[slot] = false;
  Conn* c = Find(append.conn);
  if (!ok) {
    Log(LogLevel::kError, "shard: journal append failed; fencing connection",
        {{"slot", std::to_string(slot)},
         {"conn", std::to_string(append.conn)}});
    if (c != nullptr) Lose(*c, Loss::kFenced);
    return Flush();
  }
  // Durable in the journal: the slot is done, and no other row may follow.
  if (c != nullptr) c->started.erase(slot);
  done_[slot] = true;
  ++resolved_;
  ++executed_;
  ShardAction& finished = Emit(Kind::kTaskFinished);
  finished.slot = slot;
  finished.ok = append.ok;
  finished.fallback = append.fallback;
  finished.seconds = append.seconds;
  if (options_.fault_drain_after_tasks > 0 &&
      executed_ >= options_.fault_drain_after_tasks && !draining_) {
    draining_ = true;  // Chaos hook: behave as one SIGTERM.
    stats_.interrupted = true;
  }
  return Flush();
}

ShardActions ShardCore::OnChildExit(std::int64_t pid, int status,
                                    double now_us) {
  now_us_ = now_us;
  Child* child = FindChild(pid);
  if (child == nullptr || child->exited) return Flush();
  child->exited = true;
  --live_children_;
  const bool death = !child->quit_expected;
  if (death) {
    ++stats_.worker_deaths;
    if (child->heartbeat_killed) ++stats_.heartbeat_kills;
    Log(LogLevel::kWarn, "shard: worker died",
        {{"pid", std::to_string(pid)},
         {"spawn", std::to_string(child->spawn_index)},
         {"via", child->heartbeat_killed ? "heartbeat-timeout" : "exit"},
         {"status", std::to_string(status)}});
  }
  // A connection lost before this exit was seen gets its verdict now.
  for (auto& [id, c] : conns_) {
    if (c.pid == pid && c.state == Conn::State::kAwaitingVerdict) {
      Resolve(c, /*death=*/true);
    }
  }
  // Replace the casualty while work remains and the budget allows.
  if (death && phase_ == Phase::kRunning && !draining_ && !hard_killed_ &&
      resolved_ < pending_.size()) {
    SpawnWorker();
  }
  return Flush();
}

ShardActions ShardCore::OnShutdownRequest(double now_us) {
  now_us_ = now_us;
  // Once the grid is resolved the QUITs are out: nothing left to drain.
  if (phase_ != Phase::kRunning) return Flush();
  if (!draining_) {
    draining_ = true;
    stats_.interrupted = true;
    Log(LogLevel::kWarn,
        "shard: shutdown requested, draining in-flight shards", {});
  }
  if (++shutdown_requests_ >= 2 && !hard_killed_) {
    hard_killed_ = true;
    Log(LogLevel::kWarn, "shard: second shutdown request, killing workers",
        {});
    KillLiveChildren();
    // External workers have no pid to kill; cut their connections.
    for (auto& [id, c] : conns_) {
      if (FindChild(c.pid) == nullptr) Lose(c, Loss::kFenced);
    }
  }
  return Flush();
}

ShardActions ShardCore::OnTick(double now_us) {
  now_us_ = now_us;
  const double timeout_us = options_.heartbeat_timeout_seconds * kMicros;
  for (auto& [id, c] : conns_) {
    if (c.state == Conn::State::kAwaitingVerdict) {
      if (now_us < c.verdict_deadline_us) continue;
      if (tcp_) {
        // Alive and not back within the heartbeat timeout: a drop.
        Resolve(c, /*death=*/false);
      } else {
        // A socketpair worker cannot come back: it is wedged on its way
        // out. Its exit delivers the death verdict.
        Emit(Kind::kKill).pid = c.pid;
        c.verdict_deadline_us = now_us + timeout_us;
      }
    } else if (c.state == Conn::State::kOpen && !c.quit_sent &&
               timeout_us > 0.0) {
      const double silent_us = now_us - c.last_seen_us;
      if (c.epoch == 0 && silent_us > kHelloTimeoutUs) {
        Close(c);
      } else if (c.epoch != 0 && silent_us > timeout_us) {
        Lose(c, Loss::kSilent);
      }
    }
  }
  if (phase_ == Phase::kShuttingDown && !grace_expired_ &&
      now_us >= shutdown_deadline_us_) {
    grace_expired_ = true;  // Refused to leave within the grace period.
    KillLiveChildren();
    for (auto& [id, c] : conns_) {
      if (c.state == Conn::State::kOpen) Close(c);
    }
  }
  return Flush();
}

// ---------------------------------------------------------------------------
// Queries.

obs::ShardStats ShardCore::Status(double now_us) const {
  obs::ShardStats s;
  s.enabled = true;
  s.transport = tcp_ ? "tcp" : "socketpair";
  s.workers = workers_;
  s.workers_spawned = stats_.workers_spawned;
  s.worker_deaths = stats_.worker_deaths;
  s.shards_total = shards_total_;
  s.shards_completed = shards_completed_;
  s.redispatches = stats_.redispatches;
  s.quarantined = stats_.quarantined;
  s.connections = stats_.connections;
  s.reconnects = stats_.reconnects;
  s.disconnects = stats_.disconnects;
  s.fenced_completions = stats_.fenced_completions;
  s.corrupt_frames = stats_.corrupt_frames;
  for (const auto& [id, c] : conns_) {
    if (c.state != Conn::State::kOpen || c.epoch == 0) continue;
    const auto it = fleet_.find(static_cast<std::uint64_t>(c.pid));
    obs::ShardStats::WorkerStatus w;
    if (it != fleet_.end()) w = it->second.second;
    w.pid = c.pid > 0 ? static_cast<std::uint64_t>(c.pid) : 0;
    w.heartbeat_age_seconds = (now_us - c.last_seen_us) / kMicros;
    w.clock_offset_us = c.clock_offset_us;
    s.fleet.push_back(w);
  }
  s.workers_live = spawning_ ? live_children_ : s.fleet.size();
  return s;
}

// ---------------------------------------------------------------------------
// Protocol.

ShardActions ShardCore::Flush() {
  Advance();
  return std::exchange(out_, {});
}

void ShardCore::Send(const Conn& c, FrameType type, std::string payload) {
  ShardAction& send = Emit(Kind::kSend);
  send.conn = c.id;
  send.frame = Frame{type, std::move(payload)};
}

void ShardCore::Log(LogLevel level, std::string message,
                    std::vector<obs::LogField> fields) {
  ShardAction& log = Emit(Kind::kLog);
  log.level = level;
  log.message = std::move(message);
  log.fields = std::move(fields);
}

void ShardCore::Close(Conn& c) {
  c.state = Conn::State::kClosed;
  Emit(Kind::kClose).conn = c.id;
}

void ShardCore::KillLiveChildren() {
  for (const Child& child : children_) {
    if (!child.exited) Emit(Kind::kKill).pid = child.pid;
  }
}

ShardCore::Conn* ShardCore::Find(std::uint64_t conn) {
  const auto it = conns_.find(conn);
  return it == conns_.end() || it->second.state != Conn::State::kOpen
             ? nullptr
             : &it->second;
}

ShardCore::Child* ShardCore::FindChild(std::int64_t pid) {
  for (Child& child : children_) {
    if (pid >= 0 && child.pid == pid) return &child;
  }
  return nullptr;
}

std::size_t ShardCore::InFlight() const {
  return static_cast<std::size_t>(
      std::count_if(conns_.begin(), conns_.end(), [](const auto& kv) {
        return kv.second.state == Conn::State::kOpen && kv.second.has_shard;
      }));
}

void ShardCore::SpawnWorker() {
  const std::size_t index = stats_.workers_spawned + spawns_in_flight_;
  if (index >= max_spawns_) {
    stats_.spawn_budget_exhausted = true;
    return;
  }
  ++spawns_in_flight_;
  Emit(Kind::kSpawn).spawn_index = index;
}

void ShardCore::Welcome(Conn& c, std::uint64_t prev_epoch,
                        std::uint64_t pid) {
  if (c.pid < 0) c.pid = static_cast<std::int64_t>(pid);
  c.epoch = next_epoch_++;
  ++stats_.connections;
  if (prev_epoch > 0) {
    ++stats_.reconnects;
    Log(LogLevel::kInfo, "shard: worker reconnected",
        {{"prev_epoch", std::to_string(prev_epoch)},
         {"epoch", std::to_string(c.epoch)}});
  }
  // A live child saying HELLO again proves it survived every connection
  // it lost: those were drops, not deaths.
  if (FindChild(c.pid) != nullptr) {
    for (auto& [id, other] : conns_) {
      if (other.pid == c.pid &&
          other.state == Conn::State::kAwaitingVerdict) {
        Resolve(other, /*death=*/false);
      }
    }
  }
  char header[64];
  std::snprintf(header, sizeof(header), "%llu %.6f\n",
                static_cast<unsigned long long>(c.epoch),
                options_.heartbeat_seconds > 0.0 ? options_.heartbeat_seconds
                                                 : 0.25);
  Send(c, FrameType::kWelcome, header + options_blob_);
  if (telemetry_) {
    // Post-WELCOME only: the worker's handshake rejects frames it is not
    // expecting, and stream ordering guarantees WELCOME lands first.
    Send(c, FrameType::kTraceCtx,
         SerializeTraceContext(TraceContext{trace_id_, 0}));
    SendPing(c);
  }
  if (c.quit_sent) Send(c, FrameType::kQuit, "");
}

void ShardCore::Grant(Conn& c) {
  if (queue_.empty() || draining_ || c.quit_sent || c.epoch == 0 ||
      c.has_shard || c.state != Conn::State::kOpen) {
    return;
  }
  c.shard = std::move(queue_.front());
  queue_.pop_front();
  c.has_shard = true;
  ++c.shard.attempts;
  std::string grant = std::to_string(c.shard.id);
  for (const std::size_t slot : c.shard.slots) {
    // TCP workers inherit nothing: ship every task of the shard first.
    if (tcp_) {
      Send(c, FrameType::kTask,
           std::to_string(slot) + "\n" + SerializeTask(tasks_[slot]));
    }
    grant += ' ' + std::to_string(slot);
  }
  Send(c, FrameType::kGrant, std::move(grant));
  c.grant_start_us = now_us_;
  ++stats_.shards_dispatched;
}

// Clock-offset probes: a few PING echoes per connection, the first sent
// right after WELCOME and the rest as each PONG lands (back-to-back sends
// would share one queueing stall and defeat the min-RTT filter). The token
// carries the send timestamp, so no pending map is kept.
void ShardCore::SendPing(Conn& c) {
  if (!telemetry_ || c.quit_sent) return;
  char token[64];
  std::snprintf(token, sizeof(token), "%zu %.3f", c.pings_sent++, now_us_);
  Send(c, FrameType::kPing, token);
}

// Applies one worker telemetry blob (piggybacked on HEARTBEAT/DONE); false
// when it does not parse. Dedup is per (pid, seq): a DONE resent through a
// healed partition carries the batch it was built with.
bool ShardCore::MergeTelemetry(const Conn& c, std::string_view blob) {
  if (!telemetry_ || blob.empty()) return true;  // Not asked for / absent.
  WorkerTelemetry t;
  if (!DeserializeWorkerTelemetry(blob, &t)) return false;
  auto& [last_seq, rec] = fleet_[t.pid];
  if (t.seq <= last_seq) return true;  // Replayed batch; already applied.
  last_seq = t.seq;
  rec.tasks_completed = t.tasks_completed;
  rec.cpu_seconds = t.cpu_seconds;
  rec.peak_rss_mb = t.peak_rss_mb;
  ShardAction& merge = Emit(Kind::kTelemetry);
  merge.telemetry = std::move(t);
  merge.clock_offset_us = c.clock_offset_us;
  return true;
}

// One frame from an open connection; returns what makes it a protocol
// violation, or nullptr.
const char* ShardCore::ProcessFrame(Conn& c, const Frame& frame) {
  c.last_seen_us = now_us_;
  if (c.epoch == 0) {
    if (frame.type != FrameType::kHello) return "frame before HELLO";
    const auto fields = ParseSizeFields(frame.payload, 3, 3);
    if (!fields || (*fields)[0] != kWireVersion) return "bad HELLO";
    Welcome(c, (*fields)[1], (*fields)[2]);
    return nullptr;
  }
  // Several payloads are "<header>[\n<body>]".
  const std::string_view payload(frame.payload);
  const std::size_t nl = payload.find('\n');
  const std::string_view header = payload.substr(0, nl);
  const std::string_view body = nl == std::string_view::npos
                                    ? std::string_view()
                                    : payload.substr(nl + 1);
  switch (frame.type) {
    case FrameType::kHeartbeat:  // "<epoch>[\n<telemetry blob>]"
      return MergeTelemetry(c, body) ? nullptr : "bad telemetry blob";
    case FrameType::kPong: {
      // "<probe> <t_send> <t_remote>": our own token echoed back plus the
      // worker's clock; t_recv is now, on ours.
      unsigned long long probe = 0;
      PingSample sample;
      sample.t_recv_us = now_us_;
      if (std::sscanf(frame.payload.c_str(), "%llu %lf %lf", &probe,
                      &sample.t_send_us, &sample.t_remote_us) != 3) {
        return "bad PONG";
      }
      c.ping_samples.push_back(sample);
      c.clock_offset_us = EstimateClockOffset(c.ping_samples);
      if (c.pings_sent < kPingProbes) SendPing(c);
      return nullptr;
    }
    case FrameType::kStart: {  // "<epoch> <slot>"
      const auto fields = ParseSizeFields(payload, 2, 2);
      if (!fields) return "bad START";
      const std::size_t slot = (*fields)[1];
      if ((*fields)[0] == c.epoch && slot < done_.size() && !done_[slot] &&
          c.started.insert(slot).second) {
        Emit(Kind::kTaskStarted);
      }
      return nullptr;
    }
    case FrameType::kRow: {  // "<epoch> <slot> <ok> <fb> <secs>\n<row>"
      const std::size_t sp = header.find_last_of(' ');
      if (nl == std::string_view::npos || sp == std::string_view::npos) {
        return "bad ROW header";
      }
      const auto ints = ParseSizeFields(header.substr(0, sp), 4, 4);
      const auto seconds = ParseStrictDouble(header.substr(sp + 1));
      if (!ints || !seconds || (*ints)[2] > 1 || (*ints)[3] > 1) {
        return "bad ROW header";
      }
      const std::size_t slot = (*ints)[1];
      if ((*ints)[0] != c.epoch) {
        // The lease fence: a row computed under a superseded epoch —
        // typically replayed after a reconnect, when its shard was already
        // re-dispatched — must not override first-completed-wins.
        ++stats_.fenced_completions;
        Log(LogLevel::kInfo, "shard: fenced stale completion",
            {{"row_epoch", std::to_string((*ints)[0])},
             {"epoch", std::to_string(c.epoch)},
             {"slot", std::to_string(slot)}});
        return nullptr;
      }
      if (slot >= done_.size()) return "ROW slot out of range";
      ResultRow row;
      if (!ParseJournalLine(std::string(body), &row)) {
        return "unparsable ROW journal line";
      }
      if (done_[slot] || appending_[slot]) {
        // Another row answers this slot already: the first accepted row
        // wins, and each slot reaches the journal at most once.
        c.started.erase(slot);
        return nullptr;
      }
      // Durability before acknowledgement: the row reaches the journal
      // before OnAppended marks the task done.
      appending_[slot] = true;
      ShardAction& append = Emit(Kind::kAppend);
      append.conn = c.id;
      append.slot = slot;
      append.row = std::move(row);
      append.ok = (*ints)[2] != 0;
      append.fallback = (*ints)[3] != 0;
      append.seconds = *seconds;
      return nullptr;
    }
    case FrameType::kDone: {  // "<epoch> <shard>[\n<telemetry blob>]"
      const auto fields = ParseSizeFields(header, 2, 2);
      if (!fields) return "bad DONE";
      // Telemetry rides even on a fenced DONE — the batch describes the
      // worker process, not the lease — and the seq fence guards replays.
      if (!MergeTelemetry(c, body)) return "bad telemetry blob";
      if ((*fields)[0] != c.epoch || !c.has_shard ||
          c.shard.id != (*fields)[1]) {
        return nullptr;  // Stale lease, or a resent DONE of a closed shard.
      }
      // A DONE closes only the slots whose ROWs arrived. A partial
      // partition can swallow ROW frames and heal in time for the DONE:
      // the lost slots re-queue as a fresh shard, free of attempt cost
      // (the worker is healthy; the network ate the rows).
      Shard refill{next_shard_id_, {}, 0};
      for (const std::size_t slot : c.shard.slots) {
        if (!done_[slot]) refill.slots.push_back(slot);
      }
      if (!refill.slots.empty()) {
        Log(LogLevel::kWarn, "shard: DONE with undelivered rows, re-queueing",
            {{"shard", std::to_string(c.shard.id)},
             {"missing", std::to_string(refill.slots.size())},
             {"epoch", std::to_string(c.epoch)}});
        ++next_shard_id_;
        ++shards_total_;
        queue_.push_front(std::move(refill));
        ++stats_.redispatches;
      }
      if (telemetry_) {
        ShardAction& span = Emit(Kind::kShardSpan);
        span.start_us = c.grant_start_us;
        span.message = obs::ArgsJson({{"shard", std::to_string(c.shard.id)},
                                      {"worker", std::to_string(c.pid)},
                                      {"epoch", std::to_string(c.epoch)},
                                      {"trace_id", std::to_string(trace_id_)}});
      }
      c.has_shard = false;
      ++shards_completed_;
      return nullptr;
    }
    case FrameType::kHello:
      return "duplicate HELLO";
    default:
      return nullptr;  // Unknown types are ignored (forward compatibility).
  }
}

void ShardCore::Violation(Conn& c, const char* what) {
  ++stats_.corrupt_frames;
  Log(LogLevel::kWarn, "shard: protocol violation, killing connection",
      {{"what", what}, {"epoch", std::to_string(c.epoch)}});
  Lose(c, Loss::kFenced);
}

// Tears one connection down. What its unfinished shard costs depends on
// *why* it was lost, which may not be known yet: the EOF of a live local
// child is held until that child exits (death), says HELLO again (drop),
// or stays silent past the heartbeat timeout (drop) — so the verdict never
// depends on whether the EOF or the exit is seen first. A socketpair
// worker cannot come back, so its lost connection always waits for the
// exit.
void ShardCore::Lose(Conn& c, Loss why) {
  if (c.state != Conn::State::kOpen) return;
  Close(c);
  for (const std::size_t slot : c.started) {
    if (!done_[slot]) Emit(Kind::kTaskAbandoned);
  }
  c.started.clear();
  Child* child = FindChild(c.pid);
  // A newer connection from the same process proves it outlived this one.
  const bool came_back =
      std::any_of(conns_.begin(), conns_.end(), [&](const auto& kv) {
        return kv.second.pid == c.pid && kv.second.epoch > c.epoch;
      });
  if (child == nullptr || child->exited || came_back ||
      (tcp_ && why != Loss::kEof)) {
    // An external worker, a known death, a process that came back, or a
    // live one the coordinator cut off itself (silent, maybe behind a
    // partition, or speaking garbage): the verdict is in.
    Resolve(c, /*death=*/child != nullptr && child->exited && !came_back);
    return;
  }
  if (why == Loss::kSilent) {
    // A silent socketpair worker is wedged (e.g. SIGSTOP) and can never
    // recover: kill it and let its exit deliver the death.
    Emit(Kind::kKill).pid = child->pid;
    child->heartbeat_killed = true;
  }
  c.state = Conn::State::kAwaitingVerdict;
  c.verdict_deadline_us =
      options_.heartbeat_timeout_seconds > 0.0
          ? now_us_ + options_.heartbeat_timeout_seconds * kMicros
          : 1e300;  // No timeout: only the exit or a HELLO decides.
}

// The verdict on a lost connection: a worker death burns a shard attempt
// (the poison-search currency); a bare connection loss re-queues for free,
// so network chaos never binary-searches healthy tasks into quarantine.
void ShardCore::Resolve(Conn& c, bool death) {
  c.state = Conn::State::kClosed;
  if (c.quit_sent && !c.has_shard) return;  // Clean, commanded exit.
  if (!death && c.epoch != 0) {
    ++stats_.disconnects;
    Log(LogLevel::kWarn, "shard: worker connection lost, lease fenced",
        {{"epoch", std::to_string(c.epoch)}, {"conn", std::to_string(c.id)}});
  }
  if (!c.has_shard) return;
  Shard shard = std::move(c.shard);
  c.has_shard = false;
  std::erase_if(shard.slots, [&](std::size_t slot) { return done_[slot]; });
  if (shard.slots.empty()) {
    ++shards_completed_;  // It died on the finish line.
  } else if (hard_killed_) {
    // Shutting down hard: abandon the remainder.
  } else if (!death || shard.attempts < options_.max_shard_attempts) {
    if (!death && shard.attempts > 0) --shard.attempts;
    queue_.push_front(std::move(shard));
    ++stats_.redispatches;
  } else if (shard.slots.size() > 1) {
    // Binary-search the poison: two half-shards, fresh attempts.
    const auto mid = shard.slots.begin() +
                     static_cast<std::ptrdiff_t>(shard.slots.size() / 2);
    queue_.push_front(Shard{next_shard_id_ + 1, {mid, shard.slots.end()}, 0});
    queue_.push_front(Shard{next_shard_id_, {shard.slots.begin(), mid}, 0});
    next_shard_id_ += 2;
    ++stats_.shard_splits;
    shards_total_ += 2;
    ++shards_completed_;  // The parent shard is gone.
  } else {
    Quarantine(shard.slots[0], shard.attempts);
    ++shards_completed_;
  }
}

void ShardCore::Quarantine(std::size_t slot, std::size_t deaths) {
  const BenchmarkTask& task = tasks_[slot];
  Log(LogLevel::kWarn, "shard: poison task quarantined",
      {{"dataset", task.dataset},
       {"method", task.method},
       {"horizon", std::to_string(task.horizon)}});
  ShardAction& append = Emit(Kind::kAppend);
  append.slot = slot;
  append.row = ErrorRow(task, base::Status::Crashed(
                                  "poison task quarantined: killed its "
                                  "worker " + std::to_string(deaths) + "x"));
  append.row.note = "quarantined by shard coordinator";
  Emit(Kind::kTaskFinished).slot = slot;
  done_[slot] = true;
  ++resolved_;
  ++stats_.quarantined;
}

// Shutdown is core state: once the grid is resolved (or drained, or
// starved) every worker is commanded out, and the shell keeps polling
// until the last child has exited and the last connection closed.
void ShardCore::BeginShutdown() {
  phase_ = Phase::kShuttingDown;
  shutdown_deadline_us_ = now_us_ + kQuitGraceUs;
  Emit(Kind::kStopListening);
  for (Child& child : children_) child.quit_expected = true;
  for (auto& [id, c] : conns_) {
    if (c.state != Conn::State::kOpen) continue;
    // A worker whose shard completed but whose DONE was not read yet is
    // idle, not mid-shard.
    if (c.has_shard &&
        std::all_of(c.shard.slots.begin(), c.shard.slots.end(),
                    [&](std::size_t slot) { return done_[slot]; })) {
      c.has_shard = false;
      ++shards_completed_;
    }
    c.quit_sent = true;
    if (c.epoch != 0) Send(c, FrameType::kQuit, "");  // Else after WELCOME.
  }
}

void ShardCore::Advance() {
  if (phase_ == Phase::kRunning) {
    for (auto& [id, c] : conns_) Grant(c);
    bool over = resolved_ >= pending_.size();
    if (draining_) over = over || InFlight() == 0;
    // At least one worker per unfinished shard, up to the fleet size: the
    // first fleet, and a fresh one when everybody died.
    const std::size_t wanted =
        over || draining_ || hard_killed_ || !spawning_
            ? 0
            : std::min(workers_, queue_.size() + InFlight());
    while (live_children_ + spawns_in_flight_ < wanted && !last_spawn_failed_ &&
           !stats_.spawn_budget_exhausted) {
      SpawnWorker();
    }
    // Nobody left and nobody coming: the rest become INTERNAL rows.
    over = over || (spawning_ && live_children_ + spawns_in_flight_ == 0);
    if (over) BeginShutdown();
  }
  if (phase_ == Phase::kShuttingDown && live_children_ == 0 &&
      spawns_in_flight_ == 0 &&
      std::none_of(conns_.begin(), conns_.end(), [](const auto& kv) {
        return kv.second.state == Conn::State::kOpen;
      })) {
    phase_ = Phase::kFinished;
  }
}

}  // namespace tfb::pipeline
