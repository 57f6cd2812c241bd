#include "tfb/proc/sandbox.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <new>

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "tfb/base/io.h"
#include "tfb/obs/log.h"
#include "tfb/obs/metrics.h"
#include "tfb/obs/trace.h"

// AddressSanitizer reserves terabytes of shadow address space, so RLIMIT_AS
// cannot be applied underneath it; detect ASan at compile time and report
// the limitation through MemoryLimitEnforced().
#if defined(__SANITIZE_ADDRESS__)
#define TFB_PROC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TFB_PROC_ASAN 1
#endif
#endif
#ifndef TFB_PROC_ASAN
#define TFB_PROC_ASAN 0
#endif

namespace tfb::proc {

namespace {

using Clock = std::chrono::steady_clock;

/// Child-side new-handler: an allocation that the memory limit refuses is
/// reported as a dedicated exit code instead of an uncaught std::bad_alloc
/// (which would reach std::terminate and be indistinguishable from any
/// other SIGABRT). _exit is async-signal-safe.
[[noreturn]] void OomExit() { _exit(kOomExitCode); }

void ApplyLimitsInChild(const SandboxLimits& limits) {
  if (limits.cpu_seconds > 0.0) {
    const auto secs =
        static_cast<rlim_t>(std::ceil(limits.cpu_seconds));
    // Hard limit one second above the soft one: SIGXCPU (soft) terminates
    // by default; SIGKILL (hard) is the backstop if it is ever ignored.
    const rlimit cpu{secs, secs + 1};
    setrlimit(RLIMIT_CPU, &cpu);
  }
  if (limits.memory_bytes > 0 && MemoryLimitEnforced()) {
    const auto bytes = static_cast<rlim_t>(limits.memory_bytes);
    const rlimit as{bytes, bytes};
    setrlimit(RLIMIT_AS, &as);
    std::set_new_handler(OomExit);
  }
}

/// waitpid with rusage: the kernel accounts user/sys CPU and peak RSS per
/// process, so reaping with wait4(2) is how exact per-task resource numbers
/// reach the result row (`SandboxResult::usage`).
int WaitPid(pid_t pid, int* status, rusage* usage) {
  while (true) {
    const pid_t r = wait4(pid, status, 0, usage);
    if (r >= 0 || errno != EINTR) return static_cast<int>(r);
  }
}

/// Bound on captured child stderr held by the supervisor. The buffer is
/// trimmed from the front while reading, so the *last* bytes — where the
/// crash diagnostic lives — always survive, and a child that floods stderr
/// cannot balloon the parent.
constexpr std::size_t kStderrCaptureBytes = 16 * 1024;
/// Lines of that buffer attached to the result (SandboxResult::stderr_tail).
constexpr std::size_t kStderrTailLines = 20;

void TrimToTailBytes(std::string* buf) {
  if (buf->size() > 2 * kStderrCaptureBytes) {
    buf->erase(0, buf->size() - kStderrCaptureBytes);
  }
}

/// Reads the payload and stderr pipes until both hit EOF or until
/// `deadline` (zero time_point = none) passes. Both must be drained in one
/// loop: a child blocked writing a full stderr pipe would otherwise
/// deadlock against a parent waiting only on the payload fd. Returns false
/// on deadline expiry with the child still running.
bool ReadStreams(int payload_fd, int stderr_fd, Clock::time_point deadline,
                 std::string* payload, std::string* child_stderr) {
  char buf[4096];
  bool payload_open = true;
  bool stderr_open = true;
  while (payload_open || stderr_open) {
    int timeout_ms = -1;
    if (deadline != Clock::time_point{}) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (remaining.count() <= 0) return !payload_open;
      timeout_ms = static_cast<int>(remaining.count()) + 1;
    }
    pollfd pfds[2] = {{payload_fd, POLLIN, 0}, {stderr_fd, POLLIN, 0}};
    if (!payload_open) pfds[0].fd = -1;  // poll ignores negative fds.
    if (!stderr_open) pfds[1].fd = -1;
    const int pr = poll(pfds, 2, timeout_ms);
    if (pr == 0) return !payload_open;  // Deadline expired.
    if (pr < 0) {
      if (errno == EINTR) continue;
      return true;  // Treat a poll failure as end of stream.
    }
    if (payload_open && (pfds[0].revents & (POLLIN | POLLHUP | POLLERR))) {
      const ssize_t n = read(payload_fd, buf, sizeof(buf));
      if (n > 0) {
        payload->append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        payload_open = false;  // EOF (or unrecoverable error).
      }
    }
    if (stderr_open && (pfds[1].revents & (POLLIN | POLLHUP | POLLERR))) {
      const ssize_t n = read(stderr_fd, buf, sizeof(buf));
      if (n > 0) {
        child_stderr->append(buf, static_cast<std::size_t>(n));
        TrimToTailBytes(child_stderr);
      } else if (n == 0 || errno != EINTR) {
        stderr_open = false;
      }
    }
  }
  return true;
}

bool IsCrashSignal(int sig) {
  return sig == SIGSEGV || sig == SIGBUS || sig == SIGILL || sig == SIGFPE;
}

}  // namespace

const char* TaskFateName(TaskFate fate) {
  switch (fate) {
    case TaskFate::kOk: return "ok";
    case TaskFate::kTimeout: return "timeout";
    case TaskFate::kCrash: return "crash";
    case TaskFate::kAbort: return "abort";
    case TaskFate::kOom: return "oom";
    case TaskFate::kExitNonzero: return "exit-nonzero";
    case TaskFate::kInvalidOutput: return "invalid-output";
    case TaskFate::kSpawnError: return "spawn-error";
  }
  return "?";
}

base::Status FateToStatus(TaskFate fate, const std::string& message) {
  switch (fate) {
    case TaskFate::kOk: return base::Status::Ok();
    case TaskFate::kTimeout: return base::Status::DeadlineExceeded(message);
    case TaskFate::kCrash: return base::Status::Crashed(message);
    case TaskFate::kAbort: return base::Status::Aborted(message);
    case TaskFate::kOom: return base::Status::ResourceExhausted(message);
    case TaskFate::kExitNonzero: return base::Status::Aborted(message);
    case TaskFate::kInvalidOutput: return base::Status::InvalidOutput(message);
    case TaskFate::kSpawnError: return base::Status::Internal(message);
  }
  return base::Status::Internal(message);
}

bool MemoryLimitEnforced() { return !TFB_PROC_ASAN; }

std::string TailLines(const std::string& text, std::size_t max_lines) {
  std::size_t end = text.size();
  while (end > 0 && text[end - 1] == '\n') --end;
  if (end == 0) return std::string();
  std::size_t lines = 0;
  std::size_t begin = end;
  while (begin > 0) {
    if (text[begin - 1] == '\n' && ++lines == max_lines) break;
    --begin;
  }
  // When the tail was cut by bytes (begin == 0 after a front-trimmed capture
  // buffer) rather than at a newline, the first bytes can be UTF-8
  // continuation bytes (10xxxxxx) of a code point whose lead byte was
  // trimmed away. Skip them — at most 3, the maximum continuation run of a
  // valid sequence — so the tail starts on a character boundary. Hostile
  // input that is nothing *but* continuation bytes is left alone beyond
  // that bound (it was never valid UTF-8 to begin with).
  std::size_t skipped = 0;
  while (begin < end && skipped < 3 &&
         (static_cast<unsigned char>(text[begin]) & 0xC0) == 0x80) {
    ++begin;
    ++skipped;
  }
  return text.substr(begin, end - begin);
}

SandboxResult RunInSandbox(const SandboxBody& body,
                           const SandboxLimits& limits) {
  SandboxResult result;
  const bool observed = obs::Enabled();
  const double span_start_us = observed ? obs::TraceNowMicros() : 0.0;
  int fds[2];
  if (pipe(fds) != 0) {
    result.fate = TaskFate::kSpawnError;
    result.status = FateToStatus(
        result.fate, std::string("pipe() failed: ") + std::strerror(errno));
    return result;
  }
  int err_fds[2];
  if (pipe(err_fds) != 0) {
    close(fds[0]);
    close(fds[1]);
    result.fate = TaskFate::kSpawnError;
    result.status = FateToStatus(
        result.fate, std::string("pipe() failed: ") + std::strerror(errno));
    return result;
  }
  const auto start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    close(err_fds[0]);
    close(err_fds[1]);
    result.fate = TaskFate::kSpawnError;
    result.status = FateToStatus(
        result.fate, std::string("fork() failed: ") + std::strerror(errno));
    return result;
  }

  if (pid == 0) {
    // Child. Only this thread survived the fork; apply the limits, run the
    // body on the inherited memory image, ship the payload, and _exit
    // without atexit handlers or flushing stdio buffers shared with the
    // parent. Anything that goes wrong from here on is the supervisor's
    // problem to classify, not ours to handle. Its stderr is rerouted into
    // the supervisor's capture pipe so last words (asserts, sanitizer
    // reports) reach the failed row. Observability goes dark first: a
    // sibling thread may have held the tracer, registry or logger mutex at
    // the fork, and no thread here will ever release it. (The events would
    // die with the child anyway.)
    obs::SetEnabled(false);
    obs::DefaultTracer().Disable();
    obs::DefaultLogger().SetLevel(obs::LogLevel::kOff);
    close(fds[0]);
    close(err_fds[0]);
    dup2(err_fds[1], STDERR_FILENO);
    close(err_fds[1]);
    ApplyLimitsInChild(limits);
    const std::string payload = body();
    // Best effort: a failed write surfaces in the parent as a torn payload
    // (kInvalidOutput).
    base::WriteAll(fds[1], payload);
    close(fds[1]);
    _exit(0);
  }

  // Parent / supervisor. (The child never reaches this code: its events are
  // deliberately not traced — the ring buffer it inherited dies with it.)
  close(fds[1]);
  close(err_fds[1]);
  if (observed) {
    obs::DefaultRegistry().GetCounter("tfb_sandbox_spawn_total").Increment();
    obs::DefaultTracer().RecordInstant(
        "sandbox_spawn", "proc",
        obs::ArgsJson({{"pid", std::to_string(pid)}}));
  }
  Clock::time_point deadline{};
  if (limits.wall_seconds > 0.0) {
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(limits.wall_seconds));
  }
  std::string child_stderr;
  const bool finished =
      ReadStreams(fds[0], err_fds[0], deadline, &result.payload, &child_stderr);
  bool killed_on_timeout = false;
  if (!finished) {
    kill(pid, SIGKILL);
    killed_on_timeout = true;
    if (observed) {
      obs::DefaultRegistry().GetCounter("tfb_sandbox_kill_total").Increment();
      obs::DefaultTracer().RecordInstant(
          "sandbox_kill", "proc",
          obs::ArgsJson({{"pid", std::to_string(pid)},
                         {"reason", "wall-deadline"}}));
    }
    // Drain whatever the child managed to write before the kill so a
    // near-complete payload (and its stderr last words) is still visible
    // for diagnostics.
    ReadStreams(fds[0], err_fds[0], Clock::time_point{}, &result.payload,
                &child_stderr);
  }
  close(fds[0]);
  close(err_fds[0]);
  result.stderr_tail = TailLines(child_stderr, kStderrTailLines);

  int status = 0;
  rusage child_usage{};
  if (WaitPid(pid, &status, &child_usage) < 0) {
    result.fate = TaskFate::kSpawnError;
    result.status = FateToStatus(
        result.fate, std::string("waitpid() failed: ") + std::strerror(errno));
    return result;
  }
  result.usage = obs::FromRusage(child_usage);
  result.has_usage = true;
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  char detail[160];
  if (killed_on_timeout) {
    result.fate = TaskFate::kTimeout;
    std::snprintf(detail, sizeof(detail),
                  "sandboxed task exceeded its %.3gs wall budget; SIGKILLed",
                  limits.wall_seconds);
  } else if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    result.term_signal = sig;
    if (sig == SIGXCPU) {
      result.fate = TaskFate::kTimeout;
      std::snprintf(detail, sizeof(detail),
                    "sandboxed task exceeded its %.3gs CPU budget (SIGXCPU)",
                    limits.cpu_seconds);
    } else if (sig == SIGKILL) {
      // We did not send it (killed_on_timeout is false), so the kernel's
      // OOM killer is the usual author.
      result.fate = TaskFate::kOom;
      std::snprintf(detail, sizeof(detail),
                    "sandboxed task SIGKILLed outside the supervisor "
                    "(kernel OOM killer?)");
    } else if (IsCrashSignal(sig)) {
      result.fate = TaskFate::kCrash;
      std::snprintf(detail, sizeof(detail),
                    "sandboxed task crashed: %s (signal %d)",
                    strsignal(sig), sig);
    } else if (sig == SIGABRT) {
      result.fate = TaskFate::kAbort;
      std::snprintf(detail, sizeof(detail),
                    "sandboxed task aborted (SIGABRT)");
    } else {
      result.fate = TaskFate::kCrash;
      std::snprintf(detail, sizeof(detail),
                    "sandboxed task terminated by %s (signal %d)",
                    strsignal(sig), sig);
    }
  } else {
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    result.exit_code = code;
    if (code == 0) {
      if (result.payload.empty()) {
        result.fate = TaskFate::kInvalidOutput;
        std::snprintf(detail, sizeof(detail),
                      "sandboxed task exited 0 without a result payload");
      } else {
        result.fate = TaskFate::kOk;
        detail[0] = '\0';
      }
    } else if (code == kOomExitCode) {
      result.fate = TaskFate::kOom;
      std::snprintf(detail, sizeof(detail),
                    "sandboxed task hit its %zu MiB memory limit",
                    limits.memory_bytes >> 20);
    } else {
      result.fate = TaskFate::kExitNonzero;
      std::snprintf(detail, sizeof(detail),
                    "sandboxed task exited with code %d", code);
    }
  }
  result.status = FateToStatus(result.fate, detail);
  if (observed) {
    obs::DefaultRegistry()
        .GetCounter(std::string("tfb_sandbox_fate_total{fate=\"") +
                    TaskFateName(result.fate) + "\"}")
        .Increment();
    obs::DefaultTracer().RecordComplete(
        "sandbox", "proc", span_start_us,
        obs::TraceNowMicros() - span_start_us,
        obs::ArgsJson({{"pid", std::to_string(pid)},
                       {"fate", TaskFateName(result.fate)}}));
  }
  return result;
}

}  // namespace tfb::proc
