// Deterministic simulation of the sharded coordinator's protocol core
// (pipeline/shard_core.h). Each seeded run wires a ShardCore to simulated
// workers and a simulated network, then picks the next thing that happens
// at random: a frame lands, a worker runs a task step, a child exit is
// reported, the clock ticks — and faults strike: SIGKILLs (whose EOF and
// exit arrive in either order), poison tasks, connection drops,
// partitions, swallowed and duplicate ROWs, duplicate and stale DONEs,
// garbage frames, failed journal appends, wedged workers, and shutdown
// requests followed by a resume. Every run must finish, resolve every slot
// exactly once, append no slot to the journal twice, quarantine only
// poison, and book no killed worker as a network drop; the journal's
// newest row per slot must equal the single-process row.

#include <csignal>
#include <cstdio>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tfb/pipeline/journal.h"
#include "tfb/pipeline/shard_core.h"
#include "tfb/pipeline/wire.h"

namespace tfb::pipeline {
namespace {

constexpr double kSecond = 1e6;  // The core's clock is in microseconds.

BenchmarkTask MakeTask(std::size_t slot) {
  BenchmarkTask task;
  task.dataset = "sim";
  task.method = "m" + std::to_string(slot);
  task.horizon = slot + 1;
  task.series = ts::TimeSeries::Univariate({1.0, 2.0, 3.0, 4.0});
  return task;
}

// What a single-process run produces for one task.
ResultRow ExpectedRow(const BenchmarkTask& task) {
  ResultRow row;
  row.dataset = task.dataset;
  row.method = task.method;
  row.horizon = task.horizon;
  row.ok = true;
  row.num_windows = task.horizon;
  row.note = "computed";
  return row;
}

struct Link {
  std::uint64_t conn = 0;
  std::deque<Frame> up;    // Worker -> coordinator, in flight.
  std::deque<Frame> down;  // Coordinator -> worker, in flight.
  bool worker_closed = false;
  bool coord_closed = false;
  bool eof_delivered = false;
  double partition_until = -1.0;
  bool swallow_row = false;
};

// One worker process, following the real worker's protocol.
struct Proc {
  std::int64_t pid = 0;
  int link = -1;
  bool alive = true;
  bool exit_reported = false;
  int status = 0;
  bool frozen = false;
  bool reconnect = false;
  int connect_failures = 0;
  std::uint64_t epoch = 0;
  std::uint64_t prev_epoch = 0;
  std::size_t shard = 0;
  std::deque<std::size_t> todo;
  bool started = false;  // START of todo.front() sent.
  std::vector<Frame> retained;
  Frame last_row;
  Frame last_done;
};

struct Outcome {
  bool finished = false;
  ShardRunStats stats;
  std::map<std::size_t, int> resolved;  // Slot -> TaskFinished count.
  std::map<std::size_t, int> appended;  // Slot -> rows journaled.
  std::size_t connection_faults = 0;
};

// How often each hazard actually struck, summed over all seeds: the
// simulation only proves something about the interleavings it reaches.
std::map<std::string, std::size_t> g_tally;

class Sim {
 public:
  Sim(const std::vector<BenchmarkTask>& tasks, std::vector<std::size_t> pending,
      const ShardOptions& options, std::set<std::size_t> poison,
      std::uint64_t seed, std::size_t kill_budget, bool allow_shutdown,
      std::vector<ResultRow>* journal)
      : tasks_(tasks),
        options_(options),
        tcp_(options.transport == ShardTransport::kTcp),
        poison_(std::move(poison)),
        rng_(seed),
        kill_budget_(kill_budget),
        allow_shutdown_(allow_shutdown),
        journal_(journal),
        core_(tasks, std::move(pending), options, RunnerOptions{},
              /*telemetry=*/false, /*trace_id=*/1) {}

  Outcome Run(std::size_t max_steps) {
    Execute(core_.OnTick(now_));
    for (std::size_t step = 0; step < max_steps && !core_.finished(); ++step) {
      Inject();
      std::vector<std::function<void()>> moves;
      moves.push_back([this] { Tick(); });
      for (std::size_t i = 0; i < links_.size(); ++i) {
        CollectLinkMoves(i, &moves);
      }
      for (Proc& p : procs_) CollectProcMoves(p, &moves);
      moves[Below(moves.size())]();
    }
    Outcome out;
    out.finished = core_.finished();
    out.stats = core_.stats();
    out.resolved = resolved_;
    out.appended = appended_;
    out.connection_faults = connection_faults_;
    return out;
  }

 private:
  std::size_t Below(std::size_t n) { return rng_() % n; }
  bool Chance(double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < p;
  }

  Proc* FindProc(std::int64_t pid) {
    for (Proc& p : procs_) {
      if (p.pid == pid) return &p;
    }
    return nullptr;
  }
  Link* FindLink(std::uint64_t conn) {
    for (Link& l : links_) {
      if (l.conn == conn && !l.coord_closed) return &l;
    }
    return nullptr;
  }

  // --- The shell's half: execute the core's actions. ---
  void Execute(ShardActions actions) {
    for (const ShardAction& a : actions) {
      switch (a.kind) {
        case ShardAction::Kind::kSend:
          if (Link* l = FindLink(a.conn)) l->down.push_back(a.frame);
          break;
        case ShardAction::Kind::kClose:
          if (Link* l = FindLink(a.conn)) {
            l->coord_closed = true;
            l->up.clear();
          }
          break;
        case ShardAction::Kind::kSpawn: {
          Proc p;
          p.pid = next_pid_++;
          procs_.push_back(p);
          if (tcp_) {
            procs_.back().reconnect = true;  // Connects when scheduled.
          } else {
            Connect(procs_.back(), static_cast<std::int64_t>(p.pid));
          }
          Execute(core_.OnSpawned(a.spawn_index, p.pid, now_));
          break;
        }
        case ShardAction::Kind::kKill:
          if (Proc* p = FindProc(a.pid)) Die(*p, SIGKILL);
          break;
        case ShardAction::Kind::kAppend: {
          // A failed append fences the connection: for a socketpair worker
          // that costs its life, so only TCP runs exercise it.
          const bool ok = a.conn == 0 || !tcp_ || !Chance(0.01);
          if (ok) {
            journal_->push_back(a.row);
            ++appended_[a.slot];
          } else {
            ++connection_faults_;
          }
          Execute(core_.OnAppended(a, ok));
          break;
        }
        case ShardAction::Kind::kStopListening:
          listening_ = false;
          break;
        case ShardAction::Kind::kTaskFinished:
          ++resolved_[a.slot];
          break;
        case ShardAction::Kind::kLog:
          ++g_tally[a.message];
          break;
        default:
          break;  // Progress, telemetry, spans and logs do not steer.
      }
    }
  }

  // --- The workers and the network. ---
  void Connect(Proc& p, std::int64_t known_pid) {
    links_.emplace_back();
    p.link = static_cast<int>(links_.size() - 1);
    links_.back().conn = core_.OnConnect(known_pid, now_);
    p.epoch = 0;
    p.reconnect = false;
    Up(p, FrameType::kHello,
       std::to_string(kWireVersion) + " " + std::to_string(p.prev_epoch) +
           " " + std::to_string(p.pid));
  }

  void Up(Proc& p, FrameType type, std::string payload) {
    if (p.link < 0) return;
    Link& l = links_[static_cast<std::size_t>(p.link)];
    if (l.worker_closed || l.coord_closed || now_ < l.partition_until) return;
    if (type == FrameType::kRow && l.swallow_row) {
      l.swallow_row = false;
      return;
    }
    l.up.push_back(Frame{type, std::move(payload)});
  }

  void Die(Proc& p, int status) {
    if (!p.alive) return;
    p.alive = false;
    p.status = status;
    if (p.link >= 0) {
      links_[static_cast<std::size_t>(p.link)].worker_closed = true;
    }
  }

  // The worker lost its connection: a TCP worker reconnects (abandoning
  // its shard, keeping the rows to replay), a socketpair worker exits.
  void LoseSession(Proc& p) {
    links_[static_cast<std::size_t>(p.link)].worker_closed = true;
    p.prev_epoch = p.epoch;
    p.todo.clear();
    p.started = false;
    if (tcp_) {
      p.reconnect = true;
    } else {
      Die(p, 2);
    }
  }

  void Receive(Proc& p, const Frame& frame) {
    switch (frame.type) {
      case FrameType::kWelcome: {
        p.epoch = (*ParseSizeFields(
            std::string_view(frame.payload).substr(0, frame.payload.find(' ')),
            1, 1))[0];
        for (const Frame& row : p.retained) Up(p, row.type, row.payload);
        p.retained.clear();
        break;
      }
      case FrameType::kGrant: {
        const std::vector<std::size_t> fields =
            *ParseSizeFields(frame.payload, 1);
        p.shard = fields[0];
        p.todo.assign(fields.begin() + 1, fields.end());
        p.retained.clear();
        break;
      }
      case FrameType::kQuit:
        Die(p, 0);
        break;
      default:
        break;  // TASK blobs and the rest need no answer here.
    }
  }

  // One step of the granted shard: START a task, then finish it (a poison
  // task kills its worker instead), and DONE after the last one.
  void Work(Proc& p) {
    const std::size_t slot = p.todo.front();
    if (!p.started) {
      p.started = true;
      Up(p, FrameType::kStart,
         std::to_string(p.epoch) + " " + std::to_string(slot));
      return;
    }
    if (poison_.count(slot) != 0) {
      Die(p, SIGKILL);
      return;
    }
    const std::string row = std::to_string(p.epoch) + " " +
                            std::to_string(slot) + " 1 0 0.001\n" +
                            JournalLine(ExpectedRow(tasks_[slot]));
    p.retained.push_back(Frame{FrameType::kRow, row});
    p.last_row = Frame{FrameType::kRow, row};
    Up(p, FrameType::kRow, row);
    p.todo.pop_front();
    p.started = false;
    if (p.todo.empty()) {
      p.last_done = Frame{FrameType::kDone, std::to_string(p.epoch) + " " +
                                                std::to_string(p.shard)};
      Up(p, p.last_done.type, p.last_done.payload);
    }
  }

  void Tick() {
    now_ += (0.001 + 0.05 * Chance(0.5)) * kSecond;
    for (Proc& p : procs_) {
      if (p.alive && !p.frozen && p.epoch != 0) {
        Up(p, FrameType::kHeartbeat, std::to_string(p.epoch));
      }
    }
    Execute(core_.OnTick(now_));
  }

  void CollectLinkMoves(std::size_t i,
                        std::vector<std::function<void()>>* moves) {
    Link& l = links_[i];
    if (l.coord_closed) return;
    if (!l.up.empty()) {
      moves->push_back([this, i] {
        Link& link = links_[i];
        const Frame frame = link.up.front();
        link.up.pop_front();
        Execute(core_.OnFrame(link.conn, frame, now_));
      });
    } else if (l.worker_closed && !l.eof_delivered) {
      moves->push_back([this, i] {
        links_[i].eof_delivered = true;
        for (const Proc& p : procs_) {
          if (p.link == static_cast<int>(i) && !p.alive && p.status != 0) {
            ++g_tally[p.exit_reported ? "death: exit before EOF"
                                      : "death: EOF before exit"];
          }
        }
        Execute(core_.OnEof(links_[i].conn, now_));
      });
    }
  }

  void CollectProcMoves(Proc& p, std::vector<std::function<void()>>* moves) {
    const std::int64_t pid = p.pid;
    if (!p.alive) {
      if (!p.exit_reported) {
        moves->push_back([this, pid] {
          Proc& q = *FindProc(pid);
          q.exit_reported = true;
          Execute(core_.OnChildExit(pid, q.status, now_));
        });
      }
      return;
    }
    if (p.frozen) return;
    if (p.reconnect) {
      moves->push_back([this, pid] {
        Proc& q = *FindProc(pid);
        if (listening_) {
          Connect(q, -1);
        } else if (++q.connect_failures >= 3) {
          Die(q, 1);  // Connect budget exhausted.
        }
      });
      return;
    }
    Link& l = links_[static_cast<std::size_t>(p.link)];
    if (!l.down.empty()) {
      moves->push_back([this, pid] {
        Proc& q = *FindProc(pid);
        Link& link = links_[static_cast<std::size_t>(q.link)];
        const Frame frame = link.down.front();
        link.down.pop_front();
        Receive(q, frame);
      });
    } else if (l.coord_closed) {
      moves->push_back([this, pid] { LoseSession(*FindProc(pid)); });
    } else if (!p.todo.empty() && p.epoch != 0) {
      moves->push_back([this, pid] { Work(*FindProc(pid)); });
    }
  }

  // Faults, each rare per step.
  void Inject() {
    std::vector<Proc*> live;
    for (Proc& p : procs_) {
      if (p.alive && !p.frozen && !p.reconnect && p.link >= 0) {
        live.push_back(&p);
      }
    }
    if (live.empty()) return;
    Proc& p = *live[Below(live.size())];
    Link& l = links_[static_cast<std::size_t>(p.link)];
    if (kill_budget_ > 0 && Chance(0.002)) {
      --kill_budget_;
      if (!tcp_ && Chance(0.3)) {
        p.frozen = true;  // Wedged (SIGSTOP): only the heartbeat sees it.
      } else {
        Die(p, SIGKILL);
      }
    }
    if (tcp_ && Chance(0.002)) {  // Network drop: the worker reconnects.
      ++connection_faults_;
      LoseSession(p);
    }
    if (tcp_ && Chance(0.001)) {  // Partition until the heartbeat fences it.
      ++connection_faults_;
      l.partition_until =
          now_ + 10.0 * options_.heartbeat_timeout_seconds * kSecond;
    }
    if (Chance(0.01)) l.swallow_row = true;  // Half-healed partition.
    if (p.epoch != 0 && !p.last_done.payload.empty() && Chance(0.01)) {
      Up(p, p.last_done.type, p.last_done.payload);  // Duplicate DONE.
    }
    if (p.epoch != 0 && !p.last_row.payload.empty() && Chance(0.01)) {
      // A second copy of an accepted row must never reach the journal.
      ++g_tally["duplicate ROW"];
      Up(p, p.last_row.type, p.last_row.payload);
    }
    if (p.epoch > 1 && Chance(0.005)) {  // A zombie's stale DONE.
      Up(p, FrameType::kDone,
         std::to_string(p.epoch - 1) + " " + std::to_string(p.shard));
    }
    if (tcp_ && p.epoch != 0 && Chance(0.001)) {  // Garbage gets it fenced.
      ++connection_faults_;
      Up(p, FrameType::kStart, "not a slot");
    }
    // A first request drains; an impatient second one kills.
    if (allow_shutdown_ && Chance(shutdown_requests_ > 0 ? 0.005 : 0.0005)) {
      ++shutdown_requests_;
      Execute(core_.OnShutdownRequest(now_));
    }
  }

  const std::vector<BenchmarkTask>& tasks_;
  const ShardOptions options_;
  const bool tcp_;
  const std::set<std::size_t> poison_;
  std::mt19937_64 rng_;
  std::size_t kill_budget_;
  const bool allow_shutdown_;
  std::vector<ResultRow>* journal_;  // Shared by both passes, like a file.
  ShardCore core_;
  double now_ = 1.0 * kSecond;
  bool listening_ = true;
  std::size_t shutdown_requests_ = 0;
  std::int64_t next_pid_ = 100;
  std::deque<Proc> procs_;
  std::vector<Link> links_;
  std::map<std::size_t, int> appended_;
  std::map<std::size_t, int> resolved_;
  std::size_t connection_faults_ = 0;
};

// One seeded interleaving: a random grid, fleet and fault mix; a resume
// run finishes whatever a shutdown left undone.
void SimulateOne(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::size_t n = 4 + rng() % 13;
  std::vector<BenchmarkTask> tasks;
  for (std::size_t i = 0; i < n; ++i) tasks.push_back(MakeTask(i));
  ShardOptions options;
  options.transport =
      rng() % 2 ? ShardTransport::kTcp : ShardTransport::kSocketpair;
  options.num_workers = 1 + rng() % 3;
  options.shard_size = 1 + rng() % 5;
  options.max_shard_attempts = 1 + rng() % 3;
  options.max_total_spawns = 1000;
  options.heartbeat_timeout_seconds = 2.0;
  std::set<std::size_t> poison;
  for (std::size_t k = rng() % 3; k > 0; --k) poison.insert(rng() % n);
  // Outside kills burn attempts exactly like poison; fewer than the
  // attempt budget can never push a healthy task into quarantine.
  const std::size_t kill_budget = options.max_shard_attempts - 1;

  std::vector<std::size_t> pending(n);
  for (std::size_t i = 0; i < n; ++i) pending[i] = i;
  std::vector<ResultRow> journal;
  // The resume view: per slot, the newest journaled row (a later line
  // supersedes an earlier one, as in JournalIndex).
  std::map<std::size_t, ResultRow> newest;
  std::map<std::size_t, int> resolved;
  for (int pass = 0; pass < 2 && !pending.empty(); ++pass) {
    Sim sim(tasks, pending, options, poison, seed * 2 + pass, kill_budget,
            /*allow_shutdown=*/pass == 0, &journal);
    const Outcome out = sim.Run(200000);
    ASSERT_TRUE(out.finished) << "seed " << seed << " pass " << pass
                              << ": the run never finished";
    for (const auto& [slot, count] : out.resolved) resolved[slot] += count;
    g_tally["heartbeat kills"] += out.stats.heartbeat_kills;
    g_tally["poison splits"] += out.stats.shard_splits;
    g_tally["resumed runs"] += pass;
    for (const auto& [slot, count] : out.appended) {
      EXPECT_EQ(count, 1) << "seed " << seed << " pass " << pass
                          << ": slot " << slot << " appended twice";
    }
    for (const ResultRow& row : journal) newest[row.horizon - 1] = row;
    EXPECT_LE(out.stats.disconnects, out.connection_faults)
        << "seed " << seed << ": a worker death was booked as a drop";
    EXPECT_FALSE(out.stats.spawn_budget_exhausted) << "seed " << seed;
    if (!out.stats.interrupted) {
      for (const std::size_t slot : pending) {
        EXPECT_EQ(out.resolved.count(slot), 1u)
            << "seed " << seed << ": slot " << slot << " never resolved";
      }
    }
    // Resume: whatever the journal answers is adopted, the rest runs.
    std::erase_if(pending,
                  [&](std::size_t slot) { return newest.count(slot) != 0; });
  }
  EXPECT_TRUE(pending.empty()) << "seed " << seed;
  for (const auto& [slot, count] : resolved) {
    EXPECT_EQ(count, 1) << "seed " << seed << ": slot " << slot;
  }
  ASSERT_EQ(newest.size(), n) << "seed " << seed;
  for (const auto& [slot, row] : newest) {
    if (poison.count(slot) != 0) {
      EXPECT_NE(row.error.find("quarantined"), std::string::npos)
          << "seed " << seed << ": poison slot " << slot;
    } else {
      EXPECT_EQ(JournalLine(row), JournalLine(ExpectedRow(tasks[slot])))
          << "seed " << seed << ": slot " << slot;
    }
  }
}

TEST(ShardCoreSim, EveryInterleavingResolvesEverySlotOnce) {
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    SimulateOne(seed);
    if (HasFailure()) return;  // The first failing seed is the useful one.
  }
  for (const char* hazard :
       {"death: EOF before exit", "death: exit before EOF",
        "shard: worker died", "shard: poison task quarantined",
        "shard: worker connection lost, lease fenced",
        "shard: worker reconnected", "shard: fenced stale completion",
        "shard: DONE with undelivered rows, re-queueing",
        "shard: protocol violation, killing connection",
        "shard: journal append failed; fencing connection",
        "shard: shutdown requested, draining in-flight shards",
        "shard: second shutdown request, killing workers", "duplicate ROW",
        "heartbeat kills",
        "poison splits", "resumed runs"}) {
    EXPECT_GE(g_tally[hazard], 5u) << hazard;
    std::printf("%8zu  %s\n", g_tally[hazard], hazard);
  }
}

}  // namespace
}  // namespace tfb::pipeline
