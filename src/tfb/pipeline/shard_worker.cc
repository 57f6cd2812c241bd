#include "tfb/pipeline/shard_worker.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "tfb/obs/log.h"
#include "tfb/obs/metrics.h"
#include "tfb/obs/trace.h"
#include "tfb/pipeline/journal.h"
#include "tfb/pipeline/telemetry.h"
#include "tfb/pipeline/wire.h"

namespace tfb::pipeline {
namespace {

using Clock = std::chrono::steady_clock;

// TCP connect backoff: attempt k sleeps kConnectBackoffMs * 2^(k-1), capped
// at kConnectBackoffMaxMs; kMaxConnectFailures failures in a row end the
// worker.
constexpr double kConnectBackoffMs = 50.0;
constexpr double kConnectBackoffMaxMs = 2000.0;
constexpr std::size_t kMaxConnectFailures = 10;

/// Why one connection's protocol loop ended.
enum class SessionEnd {
  kQuit,  ///< Coordinator sent QUIT: clean, commanded exit.
  kLost,  ///< Transport died (EOF, error, corrupt, send failure).
};

/// One worker process. Lives across reconnects (TCP); per-connection state
/// (epoch, heartbeat thread) lives inside RunSession.
class ShardWorker {
 public:
  ShardWorker(const WorkerLoopConfig& config,
              const std::vector<BenchmarkTask>* inherited_tasks)
      : config_(config), inherited_tasks_(inherited_tasks) {}

  /// Drives the protocol on one established transport until QUIT or loss.
  SessionEnd RunSession(std::unique_ptr<Transport> transport) {
    transport_ = std::move(transport);
    inbox_.clear();
    epoch_ = 0;
    last_done_ = Frame{};  // Any prior DONE carries a now-stale epoch.

    // HELLO. The pid lets the coordinator tie this connection to a child
    // it forked (death vs. disconnect disambiguation); external workers'
    // pids simply never match.
    {
      Frame hello;
      hello.type = FrameType::kHello;
      hello.payload = std::to_string(kWireVersion) + " " +
                      std::to_string(prev_epoch_) + " " +
                      std::to_string(static_cast<unsigned long>(getpid()));
      if (!Send(hello)) return Lost();
    }

    // WELCOME (bounded wait).
    double heartbeat_seconds = config_.heartbeat_seconds > 0.0
                                   ? config_.heartbeat_seconds
                                   : 0.25;
    {
      Frame welcome;
      if (!AwaitFrame(FrameType::kWelcome, &welcome)) return Lost();
      const std::size_t nl = welcome.payload.find('\n');
      if (nl == std::string::npos) return Lost();
      const std::string header = welcome.payload.substr(0, nl);
      const std::size_t sp = header.find(' ');
      if (sp == std::string::npos) return Lost();
      const auto epoch_field = ParseSizeFields(header.substr(0, sp), 1, 1);
      const auto hb = ParseStrictDouble(header.substr(sp + 1));
      if (!epoch_field || !hb || (*epoch_field)[0] == 0) return Lost();
      RunnerOptions options;
      bool telemetry = false;
      if (!DeserializeWorkerOptions(
              std::string_view(welcome.payload).substr(nl + 1), &options,
              &telemetry)) {
        return Lost();
      }
      epoch_ = (*epoch_field)[0];
      if (*hb > 0.0) heartbeat_seconds = *hb;
      heartbeat_seconds_ = heartbeat_seconds;
      runner_options_ = options;
      if (telemetry) {
        // The coordinator wants this worker's spans and metric deltas.
        // Enable() only once — re-enabling on a reconnect would drop spans
        // recorded while the link was down.
        obs::SetEnabled(true);
        if (!obs::DefaultTracer().enabled()) obs::DefaultTracer().Enable();
        if (!telemetry_) {
          // First telemetry WELCOME: what a forked worker inherited from
          // the coordinator is not this worker's to ship.
          const std::lock_guard<std::mutex> lock(telemetry_mutex_);
          collector_.ResetBaseline();
        }
      }
      telemetry_ = telemetry;
    }

    // Replay the retained ROW frames of a shard interrupted by the previous
    // connection loss. They still carry the old epoch, so the coordinator
    // fences every one of them — the replay exists to exercise (and prove)
    // the lease machinery, and to make "late duplicate from a zombie
    // worker" an everyday event instead of an untested corner.
    for (const Frame& row : retained_rows_) {
      if (!Send(row)) return Lost();
    }
    retained_rows_.clear();

    // Heartbeats from a side thread: a long-computing task must not read
    // as a dead worker. The wait is interruptible — a QUIT must not strand
    // the session in join() for up to a whole heartbeat period.
    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    const std::uint64_t hb_epoch = epoch_;
    std::thread heartbeat([&] {
      const auto period = std::chrono::duration<double>(heartbeat_seconds);
      std::unique_lock<std::mutex> lock(hb_mutex);
      while (!hb_stop) {
        Frame beat;
        beat.type = FrameType::kHeartbeat;
        beat.payload = std::to_string(hb_epoch);
        const std::string blob = CollectTelemetryBlob();
        if (!blob.empty()) {
          beat.payload += '\n';
          beat.payload += blob;
        }
        if (!Send(beat)) break;  // Transport gone; main loop notices too.
        hb_cv.wait_for(lock, period, [&] { return hb_stop; });
      }
    });
    const SessionEnd end = MainLoop();
    {
      const std::lock_guard<std::mutex> lock(hb_mutex);
      hb_stop = true;
    }
    hb_cv.notify_one();
    heartbeat.join();
    if (end == SessionEnd::kLost) return Lost();
    transport_->Close();
    return end;
  }

 private:
  SessionEnd Lost() {
    prev_epoch_ = epoch_;
    transport_->Close();
    return SessionEnd::kLost;
  }

  bool Send(const Frame& frame) {
    const std::lock_guard<std::mutex> lock(send_mutex_);
    return transport_->Send(frame);
  }

  /// Pulls newly received frames into inbox_. One Recv may surface several
  /// frames at once (the coordinator sends WELCOME and the first GRANT
  /// back-to-back, and TCP coalesces them into one read) — queueing instead
  /// of handing out a single batch means no frame is ever dropped between
  /// the handshake and the main loop.
  Transport::RecvResult FillInbox(int timeout_ms) {
    std::vector<Frame> frames;
    const auto r = transport_->Recv(&frames, timeout_ms);
    if (r == Transport::RecvResult::kFrames) {
      for (Frame& f : frames) inbox_.push_back(std::move(f));
    }
    return r;
  }

  /// Waits up to ~10 s for one frame of the given type; anything else
  /// (other frame types, EOF, corruption, timeout) fails the session.
  bool AwaitFrame(FrameType want, Frame* out) {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
      if (!inbox_.empty()) {
        Frame f = std::move(inbox_.front());
        inbox_.pop_front();
        if (f.type == want) {
          *out = std::move(f);
          return true;
        }
        return false;  // Unexpected frame before the handshake completed.
      }
      const auto r = FillInbox(200);
      if (r == Transport::RecvResult::kIdle ||
          r == Transport::RecvResult::kFrames) {
        continue;
      }
      return false;
    }
    return false;
  }

  /// Retries the last DONE while the worker sits idle. The coordinator
  /// treats duplicates as no-ops (the shard is already closed), so this is
  /// free on a healthy link — and it is the only way a DONE swallowed by a
  /// since-healed partition ever reaches the coordinator: heartbeats flow
  /// again, nothing times out, and without the retry both sides would wait
  /// on each other forever.
  void MaybeResendDone() {
    if (last_done_.payload.empty()) return;
    const double idle =
        std::chrono::duration<double>(Clock::now() - last_done_time_).count();
    if (idle < std::max(heartbeat_seconds_ * 4.0, 0.2)) return;
    (void)Send(last_done_);  // A failed send surfaces on the next recv.
    last_done_time_ = Clock::now();
  }

  SessionEnd MainLoop() {
    for (;;) {
      if (inbox_.empty()) {
        const auto r = FillInbox(200);
        if (r == Transport::RecvResult::kIdle) {
          MaybeResendDone();
          continue;
        }
        if (r != Transport::RecvResult::kFrames) return SessionEnd::kLost;
      }
      while (!inbox_.empty()) {
        const Frame frame = std::move(inbox_.front());
        inbox_.pop_front();
        switch (frame.type) {
          case FrameType::kQuit:
            return SessionEnd::kQuit;
          case FrameType::kTask: {
            const std::size_t nl = frame.payload.find('\n');
            if (nl == std::string::npos) return SessionEnd::kLost;
            const auto slot =
                ParseSizeFields(frame.payload.substr(0, nl), 1, 1);
            if (!slot) return SessionEnd::kLost;
            BenchmarkTask task;
            if (!DeserializeTask(
                    std::string_view(frame.payload).substr(nl + 1), &task)) {
              return SessionEnd::kLost;
            }
            task_cache_[(*slot)[0]] = std::move(task);
            break;
          }
          case FrameType::kGrant: {
            const auto fields = ParseSizeFields(frame.payload, 1);
            if (!fields) return SessionEnd::kLost;
            if (!RunShard(*fields)) return SessionEnd::kLost;
            break;
          }
          case FrameType::kTraceCtx: {
            const auto ctx = ParseTraceContext(frame.payload);
            if (!ctx) return SessionEnd::kLost;
            {
              const std::lock_guard<std::mutex> lock(telemetry_mutex_);
              trace_ctx_ = *ctx;
            }
            break;
          }
          case FrameType::kPing: {
            // Clock probe: echo the coordinator's token with our steady
            // clock appended, so it can estimate the offset (midpoint on
            // the min-RTT sample). Answered from the main loop — the echo
            // shares the queueing delay real frames see.
            Frame pong;
            pong.type = FrameType::kPong;
            char now[40];
            std::snprintf(now, sizeof(now), "%.3f", obs::TraceNowMicros());
            pong.payload = frame.payload + " " + now;
            if (!Send(pong)) return SessionEnd::kLost;
            break;
          }
          default:
            break;  // Stale/unexpected frames are ignored, not fatal.
        }
      }
    }
  }

  /// Executes one granted shard: fields = [shard_id, slot...].
  bool RunShard(const std::vector<std::size_t>& fields) {
    const std::size_t shard_id = fields[0];
    // Retention window: the rows of the *previous* shard are dropped only
    // now, not when DONE goes out — a DONE swallowed by a partition must
    // still leave rows to replay (all tagged with the now-stale epoch, so
    // the coordinator fences every one of them).
    retained_rows_.clear();
    const BenchmarkRunner runner(runner_options_);
    for (std::size_t i = 1; i < fields.size(); ++i) {
      const std::size_t slot = fields[i];
      const BenchmarkTask* task = nullptr;
      if (inherited_tasks_ != nullptr) {
        if (slot >= inherited_tasks_->size()) return false;
        task = &(*inherited_tasks_)[slot];
      } else {
        const auto it = task_cache_.find(slot);
        if (it == task_cache_.end()) return false;  // Missing TASK frame.
        task = &it->second;
      }
      Frame start;
      start.type = FrameType::kStart;
      start.payload =
          std::to_string(epoch_) + " " + std::to_string(slot);
      if (!Send(start)) return false;

      const auto started = Clock::now();
      const ResultRow row = runner.RunOne(*task);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - started).count();

      Frame result;
      result.type = FrameType::kRow;
      char header[96];
      std::snprintf(header, sizeof(header), "%llu %zu %d %d %.6f\n",
                    static_cast<unsigned long long>(epoch_), slot,
                    row.ok ? 1 : 0, row.used_fallback ? 1 : 0, seconds);
      result.payload = std::string(header) + JournalLine(row);
      retained_rows_.push_back(result);  // For post-reconnect replay.
      if (!Send(result)) return false;

      ++tasks_done_;
      if (config_.fault_kill_worker >= 0 &&
          config_.spawn_index ==
              static_cast<std::size_t>(config_.fault_kill_worker) &&
          tasks_done_ >= config_.fault_kill_after_tasks) {
        // Chaos hook: die (or freeze, for SIGSTOP) mid-shard. The rows
        // already sent are durable on the coordinator's side.
        raise(config_.fault_kill_signal);
      }
    }
    Frame done;
    done.type = FrameType::kDone;
    done.payload = std::to_string(epoch_) + " " + std::to_string(shard_id);
    // Ship the shard's telemetry with its completion. A resent DONE carries
    // the same blob (same seq); the coordinator applies each seq once.
    const std::string blob = CollectTelemetryBlob();
    if (!blob.empty()) {
      done.payload += '\n';
      done.payload += blob;
    }
    last_done_ = done;
    last_done_time_ = Clock::now();
    return Send(done);
  }

  /// Serialized telemetry batch, or "" when the coordinator did not ask for
  /// telemetry. Called from both the heartbeat thread and the main loop;
  /// the collector's snapshot/cursor state is guarded here.
  std::string CollectTelemetryBlob() {
    if (!telemetry_) return std::string();
    const std::lock_guard<std::mutex> lock(telemetry_mutex_);
    return SerializeWorkerTelemetry(
        collector_.Collect(trace_ctx_.trace_id, tasks_done_));
  }

  const WorkerLoopConfig config_;
  const std::vector<BenchmarkTask>* inherited_tasks_;  // null for TCP.
  std::unordered_map<std::size_t, BenchmarkTask> task_cache_;

  std::unique_ptr<Transport> transport_;
  std::deque<Frame> inbox_;  // Received, not yet processed (main loop only).
  std::mutex send_mutex_;  // Heartbeat thread vs. main loop.
  std::uint64_t epoch_ = 0;
  std::uint64_t prev_epoch_ = 0;
  double heartbeat_seconds_ = 0.25;
  RunnerOptions runner_options_;
  std::vector<Frame> retained_rows_;  // ROW frames of the unfinished shard.
  Frame last_done_;  // Resent while idle; empty payload = nothing to resend.
  Clock::time_point last_done_time_{};
  std::atomic<std::size_t> tasks_done_{0};  // Heartbeat thread reads it.

  bool telemetry_ = false;       // Coordinator asked for telemetry shipping.
  TraceContext trace_ctx_;       // Latest kTraceCtx; zero until one arrives.
  std::mutex telemetry_mutex_;   // Heartbeat thread vs. main loop.
  TelemetryCollector collector_;
};

}  // namespace

int RunSocketpairWorker(int fd, const WorkerLoopConfig& config,
                        const std::vector<BenchmarkTask>& tasks) {
  // Ctrl-C goes to the whole foreground group; drain is the coordinator's
  // decision, so workers ignore SIGINT and wait for QUIT.
  std::signal(SIGINT, SIG_IGN);
  std::signal(SIGTERM, SIG_DFL);
  std::unique_ptr<Transport> transport =
      MakeFdTransport(fd, "socketpair:" + std::to_string(config.spawn_index));
  transport = WrapWithFaultInjection(std::move(transport), config.chaos,
                                     config.spawn_index);
  ShardWorker worker(config, &tasks);
  // A lost socketpair means the coordinator is gone; there is nothing to
  // reconnect to.
  return worker.RunSession(std::move(transport)) == SessionEnd::kQuit ? 0 : 2;
}

int RunTcpShardWorker(const TcpWorkerOptions& options) {
  std::signal(SIGINT, SIG_IGN);
  std::signal(SIGTERM, SIG_DFL);
  ShardWorker worker(options.loop, nullptr);
  std::size_t consecutive_failures = 0;
  std::uint64_t connection_id = 0;
  while (consecutive_failures < kMaxConnectFailures) {
    std::string error;
    std::unique_ptr<Transport> transport =
        TcpConnect(options.host, options.port, &error);
    if (transport == nullptr) {
      if (connection_id > 0 && errno == ECONNREFUSED) {
        // The coordinator stopped listening: it is shutting down, and
        // waiting out a backoff would only hold it up.
        obs::DefaultLogger().Info(
            "reconnect refused; coordinator gone",
            {{"host", options.host}, {"port", std::to_string(options.port)}});
        return 1;
      }
      ++consecutive_failures;
      double delay = kConnectBackoffMs;
      for (std::size_t k = 1; k < consecutive_failures; ++k) {
        delay *= 2.0;
        if (delay >= kConnectBackoffMaxMs) break;
      }
      delay = std::min(delay, kConnectBackoffMaxMs);
      obs::DefaultLogger().Warn(
          "connect failed; backing off",
          {{"host", options.host},
           {"port", std::to_string(options.port)},
           {"error", error},
           {"attempt", std::to_string(consecutive_failures)},
           {"of", std::to_string(kMaxConnectFailures)},
           {"backoff_ms", std::to_string(delay)}});
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay));
      continue;
    }
    consecutive_failures = 0;
    obs::DefaultLogger().Info(
        "connected to coordinator",
        {{"host", options.host},
         {"port", std::to_string(options.port)},
         {"connection", std::to_string(connection_id)}});
    // A fresh fault schedule per connection: a reconnected worker is a new
    // network path, not a replay of the old one. Partitions fire on each
    // worker's first connection only — a partition re-armed on every
    // reconnect would blackhole the recovery traffic itself and the run
    // could never converge.
    FaultPlan chaos = options.loop.chaos;
    if (connection_id > 0) {
      chaos.partition_after = 0;
      chaos.partition_frames = 0;
    }
    transport = WrapWithFaultInjection(
        std::move(transport), chaos,
        options.loop.spawn_index * 1000003ULL + connection_id);
    ++connection_id;
    if (worker.RunSession(std::move(transport)) == SessionEnd::kQuit) {
      obs::DefaultLogger().Info("quit received; draining", {});
      return 0;
    }
    // Connection lost: back off briefly, then reconnect with the previous
    // epoch in HELLO so the coordinator can count the reconnect.
    obs::DefaultLogger().Warn(
        "connection lost; reconnecting",
        {{"host", options.host},
         {"port", std::to_string(options.port)},
         {"backoff_ms", std::to_string(kConnectBackoffMs)}});
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(kConnectBackoffMs));
  }
  obs::DefaultLogger().Error(
      "connect budget exhausted; giving up",
      {{"host", options.host},
       {"port", std::to_string(options.port)},
       {"failures", std::to_string(kMaxConnectFailures)}});
  return 1;  // Connect budget exhausted; the coordinator fences our lease.
}

}  // namespace tfb::pipeline
