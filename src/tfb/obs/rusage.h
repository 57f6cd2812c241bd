#ifndef TFB_OBS_RUSAGE_H_
#define TFB_OBS_RUSAGE_H_

/// \file
/// Resource accounting on top of getrusage(2): where the CPU seconds and
/// the peak RSS of a run actually went. In-process tasks are measured as
/// RUSAGE_THREAD deltas around the evaluation (user/sys CPU only — RSS is
/// a process-wide high-water mark and cannot be attributed to one thread);
/// sandboxed tasks get exact per-child numbers, including peak RSS, via
/// the wait4(2) rusage the kernel keeps per process (see
/// proc::SandboxResult::usage). Both land on ResultRow and round-trip
/// through the JSONL journal.

struct rusage;

namespace tfb::obs {

/// CPU and memory consumption of a process, thread, or interval.
struct ResourceUsage {
  double user_cpu_seconds = 0.0;
  double sys_cpu_seconds = 0.0;
  /// Peak resident set size in MiB; 0 when unknown (thread-scoped deltas,
  /// platforms without ru_maxrss).
  double max_rss_mb = 0.0;

  double total_cpu_seconds() const {
    return user_cpu_seconds + sys_cpu_seconds;
  }
};

/// The usage getrusage(2) or wait4(2) reported, peak RSS included.
ResourceUsage FromRusage(const struct rusage& ru);

/// Whole-process usage so far (RUSAGE_SELF).
ResourceUsage SelfUsage();

/// Calling thread's usage so far (RUSAGE_THREAD where available, else
/// RUSAGE_SELF — still monotone, so deltas stay non-negative).
ResourceUsage ThreadUsage();

/// CPU delta `end - begin` (clamped at zero); max_rss_mb is taken from
/// `end` only when `begin` had none, otherwise left 0 — a high-water mark
/// has no meaningful difference.
ResourceUsage UsageDelta(const ResourceUsage& begin, const ResourceUsage& end);

}  // namespace tfb::obs

#endif  // TFB_OBS_RUSAGE_H_
