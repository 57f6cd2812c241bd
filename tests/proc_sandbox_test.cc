// Unit tests for the tfb::proc fork-based task sandbox: payload round trip
// (including payloads larger than a pipe buffer), and classification of
// every fate in the failure taxonomy — crash, abort, non-zero exit, wall
// timeout, CPU timeout, and memory-limit OOM (gated on builds where
// RLIMIT_AS can be enforced, i.e. not under AddressSanitizer).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "tfb/obs/log.h"
#include "tfb/obs/metrics.h"
#include "tfb/obs/trace.h"
#include "tfb/proc/sandbox.h"

namespace tfb::proc {
namespace {

TEST(ProcSandbox, DeliversPayloadFromHealthyChild) {
  const SandboxResult r =
      RunInSandbox([] { return std::string("hello from the child"); }, {});
  EXPECT_EQ(r.fate, TaskFate::kOk);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.payload, "hello from the child");
  EXPECT_EQ(r.exit_code, 0);
}

TEST(ProcSandbox, DeliversPayloadLargerThanPipeBuffer) {
  // Linux pipes buffer 64 KiB by default; a 1 MiB payload forces the child
  // to block mid-write unless the parent drains concurrently.
  const std::string big(std::size_t{1} << 20, 'x');
  const SandboxResult r = RunInSandbox([&big] { return big; }, {});
  ASSERT_EQ(r.fate, TaskFate::kOk);
  EXPECT_EQ(r.payload.size(), big.size());
  EXPECT_EQ(r.payload, big);
}

TEST(ProcSandbox, ClassifiesSegfaultAsCrash) {
  const SandboxResult r = RunInSandbox([]() -> std::string {
    std::signal(SIGSEGV, SIG_DFL);
    std::raise(SIGSEGV);
    return "unreachable";
  }, {});
  EXPECT_EQ(r.fate, TaskFate::kCrash);
  EXPECT_EQ(r.term_signal, SIGSEGV);
  EXPECT_EQ(r.status.code(), base::StatusCode::kCrashed);
  EXPECT_NE(r.status.message().find("signal 11"), std::string::npos)
      << r.status.message();
}

TEST(ProcSandbox, ClassifiesAbortAsAbort) {
  const SandboxResult r = RunInSandbox([]() -> std::string {
    std::signal(SIGABRT, SIG_DFL);
    std::abort();
  }, {});
  EXPECT_EQ(r.fate, TaskFate::kAbort);
  EXPECT_EQ(r.status.code(), base::StatusCode::kAborted);
}

TEST(ProcSandbox, ClassifiesNonzeroExit) {
  const SandboxResult r =
      RunInSandbox([]() -> std::string { _exit(7); }, {});
  EXPECT_EQ(r.fate, TaskFate::kExitNonzero);
  EXPECT_EQ(r.exit_code, 7);
  EXPECT_EQ(r.status.code(), base::StatusCode::kAborted);
  EXPECT_NE(r.status.message().find("code 7"), std::string::npos);
}

TEST(ProcSandbox, CleanExitWithoutPayloadIsInvalidOutput) {
  const SandboxResult r =
      RunInSandbox([] { return std::string(); }, {});
  EXPECT_EQ(r.fate, TaskFate::kInvalidOutput);
  EXPECT_EQ(r.status.code(), base::StatusCode::kInvalidOutput);
}

TEST(ProcSandbox, CapturesStderrTailFromCrashingChild) {
  const SandboxResult r = RunInSandbox([]() -> std::string {
    std::fprintf(stderr, "about to dereference nullptr\n");
    std::fprintf(stderr, "last words\n");
    std::fflush(stderr);
    std::signal(SIGSEGV, SIG_DFL);
    std::raise(SIGSEGV);
    return "unreachable";
  }, {});
  EXPECT_EQ(r.fate, TaskFate::kCrash);
  EXPECT_NE(r.stderr_tail.find("about to dereference nullptr"),
            std::string::npos)
      << r.stderr_tail;
  EXPECT_NE(r.stderr_tail.find("last words"), std::string::npos);
}

TEST(ProcSandbox, StderrTailKeepsOnlyTheLastLines) {
  const SandboxResult r = RunInSandbox([]() -> std::string {
    for (int i = 0; i < 100; ++i) std::fprintf(stderr, "line %03d\n", i);
    std::fflush(stderr);
    _exit(3);
  }, {});
  EXPECT_EQ(r.fate, TaskFate::kExitNonzero);
  // The last ~20 lines survive; the early ones are trimmed.
  EXPECT_EQ(r.stderr_tail.find("line 000"), std::string::npos)
      << r.stderr_tail;
  EXPECT_NE(r.stderr_tail.find("line 099"), std::string::npos);
  EXPECT_NE(r.stderr_tail.find("line 080"), std::string::npos);
  EXPECT_EQ(r.stderr_tail.find("line 079"), std::string::npos);
}

TEST(ProcSandbox, TailLinesNeverStartsMidUtf8Character) {
  // A byte-trimmed capture buffer can start anywhere inside the child's
  // stream — including between the lead and continuation bytes of a
  // multi-byte code point. TailLines must step past the orphaned
  // continuation bytes so the tail begins on a character boundary.
  const std::string emoji = "\xF0\x9F\x98\x80";  // U+1F600, 4 bytes.
  const std::string line = "crash in " + emoji + emoji + " handler";
  for (std::size_t cut = 1; cut < 4; ++cut) {
    // Tear the stream one, two, and three bytes into the first emoji.
    const std::string torn = line.substr(line.find(emoji) + cut);
    const std::string tail = TailLines(torn + "\nlast\n", 5);
    ASSERT_FALSE(tail.empty());
    EXPECT_NE((static_cast<unsigned char>(tail.front()) & 0xC0), 0x80)
        << "cut=" << cut << " tail begins with a continuation byte";
    // The rest of the line and all later lines survive untouched.
    EXPECT_NE(tail.find(" handler"), std::string::npos) << tail;
    EXPECT_NE(tail.find("last"), std::string::npos) << tail;
    // The second emoji, which was never torn, is intact.
    EXPECT_NE(tail.find(emoji), std::string::npos) << "cut=" << cut;
  }
}

TEST(ProcSandbox, TailLinesLeavesBoundaryAlignedUtf8Intact) {
  // Two-byte and three-byte text that is *not* torn must pass through
  // byte-for-byte: the continuation-byte skip only fires on a torn front.
  const std::string text = "pr\xC3\xA9lude\n\xE2\x86\x92 done\n";
  EXPECT_EQ(TailLines(text, 5), "pr\xC3\xA9lude\n\xE2\x86\x92 done");
  // Line-count truncation picks whole lines, so a boundary is guaranteed.
  EXPECT_EQ(TailLines(text, 1), "\xE2\x86\x92 done");
}

TEST(ProcSandbox, TailLinesBoundsSkipOnHostileContinuationBytes) {
  // Input that is nothing but continuation bytes was never valid UTF-8; the
  // skip is bounded at 3 (the longest legal continuation run) so hostile
  // garbage cannot erase the whole tail.
  const std::string hostile(10, '\x80');
  const std::string tail = TailLines(hostile, 5);
  EXPECT_EQ(tail, hostile.substr(3));
}

TEST(ProcSandbox, FloodedMultibyteStderrTailStartsOnCharacterBoundary) {
  // End-to-end: a child floods stderr with long multi-byte lines so the
  // supervisor's capture buffer is trimmed from the front at an arbitrary
  // byte offset. Wherever the trim lands, the surfaced tail must not begin
  // mid-character.
  const SandboxResult r = RunInSandbox([]() -> std::string {
    std::string line;
    for (int i = 0; i < 511; ++i) line += "\xC3\xA9";  // "é"
    for (int i = 0; i < 64; ++i) std::fprintf(stderr, "%s\n", line.c_str());
    std::fflush(stderr);
    _exit(3);
  }, {});
  EXPECT_EQ(r.fate, TaskFate::kExitNonzero);
  ASSERT_FALSE(r.stderr_tail.empty());
  EXPECT_NE((static_cast<unsigned char>(r.stderr_tail.front()) & 0xC0), 0x80)
      << "stderr tail begins with a UTF-8 continuation byte";
}

TEST(ProcSandbox, QuietChildLeavesStderrTailEmpty) {
  const SandboxResult r =
      RunInSandbox([] { return std::string("quiet"); }, {});
  EXPECT_EQ(r.fate, TaskFate::kOk);
  EXPECT_TRUE(r.stderr_tail.empty()) << r.stderr_tail;
}

TEST(ProcSandbox, ChattyStderrDoesNotDeadlockPayloadDelivery) {
  // A child that floods stderr past the pipe buffer while the payload pipe
  // is also in play: the parent must drain both streams concurrently or
  // the child blocks forever on a full stderr pipe.
  const std::string big(std::size_t{1} << 20, 'y');
  const SandboxResult r = RunInSandbox([&big]() -> std::string {
    for (int i = 0; i < 4096; ++i) {
      std::fprintf(stderr, "chatter %04d: %s\n", i,
                   std::string(64, '#').c_str());
    }
    std::fflush(stderr);
    return big;
  }, {});
  ASSERT_EQ(r.fate, TaskFate::kOk);
  EXPECT_EQ(r.payload, big);
  EXPECT_NE(r.stderr_tail.find("chatter 4095"), std::string::npos);
  EXPECT_EQ(r.stderr_tail.find("chatter 0000"), std::string::npos);
}

TEST(ProcSandbox, WallTimeoutKillsHungChild) {
  SandboxLimits limits;
  limits.wall_seconds = 0.2;
  const auto start = std::chrono::steady_clock::now();
  const SandboxResult r = RunInSandbox([]() -> std::string {
    // An uninterruptible stall far beyond the budget: only the
    // supervisor's SIGKILL can end this.
    std::this_thread::sleep_for(std::chrono::seconds(30));
    return "too late";
  }, limits);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(r.fate, TaskFate::kTimeout);
  EXPECT_EQ(r.status.code(), base::StatusCode::kDeadlineExceeded);
  // The child is gone, not abandoned: the supervisor returned promptly.
  EXPECT_LT(elapsed, 5.0);
}

TEST(ProcSandbox, CpuLimitKillsSpinningChild) {
  SandboxLimits limits;
  limits.cpu_seconds = 1.0;
  const SandboxResult r = RunInSandbox([]() -> std::string {
    volatile double sink = 0.0;
    while (true) sink += 1.0;  // Burns CPU, never sleeps, never returns.
  }, limits);
  EXPECT_EQ(r.fate, TaskFate::kTimeout);
  EXPECT_EQ(r.term_signal, SIGXCPU);
  EXPECT_EQ(r.status.code(), base::StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status.message().find("CPU"), std::string::npos);
}

TEST(ProcSandbox, MemoryLimitTurnsRunawayAllocationIntoOom) {
  if (!MemoryLimitEnforced()) {
    GTEST_SKIP() << "RLIMIT_AS cannot be enforced under this sanitizer";
  }
  SandboxLimits limits;
  limits.memory_bytes = std::size_t{512} << 20;
  const SandboxResult r = RunInSandbox([]() -> std::string {
    std::vector<std::unique_ptr<char[]>> hoard;
    constexpr std::size_t kChunk = std::size_t{16} << 20;
    // Try to hold 4 GiB against a 512 MiB limit, touching every page.
    for (std::size_t held = 0; held < (std::size_t{4} << 30);
         held += kChunk) {
      auto chunk = std::make_unique<char[]>(kChunk);
      std::memset(chunk.get(), 0x5a, kChunk);
      hoard.push_back(std::move(chunk));
    }
    return "never got here";
  }, limits);
  EXPECT_EQ(r.fate, TaskFate::kOom);
  EXPECT_EQ(r.exit_code, kOomExitCode);
  EXPECT_EQ(r.status.code(), base::StatusCode::kResourceExhausted);
  EXPECT_NE(r.status.message().find("memory limit"), std::string::npos);
}

TEST(ProcSandbox, FateNamesAndStatusMappingAreTotal) {
  for (const TaskFate fate :
       {TaskFate::kOk, TaskFate::kTimeout, TaskFate::kCrash, TaskFate::kAbort,
        TaskFate::kOom, TaskFate::kExitNonzero, TaskFate::kInvalidOutput,
        TaskFate::kSpawnError}) {
    EXPECT_STRNE(TaskFateName(fate), "?");
    const base::Status status = FateToStatus(fate, "detail");
    EXPECT_EQ(status.ok(), fate == TaskFate::kOk);
  }
}

TEST(ProcSandbox, ConcurrentSandboxesFromWorkerThreads) {
  // The runner forks from every thread of its pool; each sandbox must own
  // its pipe and child without cross-talk.
  constexpr int kThreads = 8;
  std::vector<std::thread> pool;
  std::vector<SandboxResult> results(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([i, &results] {
      results[i] = RunInSandbox(
          [i]() -> std::string {
            if (i % 3 == 1) {
              std::signal(SIGSEGV, SIG_DFL);
              std::raise(SIGSEGV);
            }
            return "worker " + std::to_string(i);
          },
          {});
    });
  }
  for (std::thread& t : pool) t.join();
  for (int i = 0; i < kThreads; ++i) {
    if (i % 3 == 1) {
      EXPECT_EQ(results[i].fate, TaskFate::kCrash) << i;
    } else {
      ASSERT_EQ(results[i].fate, TaskFate::kOk) << i;
      EXPECT_EQ(results[i].payload, "worker " + std::to_string(i));
    }
  }
}

TEST(ProcSandbox, ChildrenNeverBlockOnObsLocksHeldAtFork) {
  // A sibling thread keeps the tracer, registry and logger mutexes busy
  // while sandboxes fork. A child forked inside one of those critical
  // sections inherits a locked mutex whose owner does not exist in it, so
  // a body that spans, counts or logs like the runner does would block
  // forever — unless the child turns obs off before running it. The wall
  // budget turns such a hang into a failed fate instead of a stuck test.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::DefaultTracer().Enable();
  obs::Logger& logger = obs::DefaultLogger();
  logger.SetTextSink(nullptr);
  std::atomic<bool> stop{false};
  std::thread hammer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::ScopedSpan span("hammer", "test");
      obs::DefaultRegistry().GetCounter("tfb_test_hammer_total").Increment();
      logger.Info("hammer", {{"k", "v"}});
    }
  });
  const auto body = [] {
    for (int i = 0; i < 20; ++i) {
      const obs::ScopedSpan span("body", "test");
      if (obs::Enabled()) {
        obs::DefaultRegistry().GetCounter("tfb_test_body_total").Increment();
      }
      obs::DefaultLogger().Info("body", {{"i", std::to_string(i)}});
    }
    return std::string("done");
  };
  SandboxLimits limits;
  limits.wall_seconds = 5.0;
  int completed = 0;
  for (; completed < 300; ++completed) {
    const SandboxResult r = RunInSandbox(body, limits);
    if (r.fate != TaskFate::kOk || r.payload != "done") break;
  }
  stop = true;
  hammer.join();
  logger.SetTextSink(stderr);
  obs::DefaultTracer().Disable();
  obs::SetEnabled(was_enabled);
  EXPECT_EQ(completed, 300) << "sandbox " << completed << " hung";
}

}  // namespace
}  // namespace tfb::proc
