#include "tfb/obs/rusage.h"

#include <algorithm>

#include <sys/resource.h>

namespace tfb::obs {

namespace {

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

ResourceUsage FromRusage(const struct rusage& ru) {
  ResourceUsage out;
  out.user_cpu_seconds = TimevalSeconds(ru.ru_utime);
  out.sys_cpu_seconds = TimevalSeconds(ru.ru_stime);
  // Linux reports ru_maxrss in KiB.
  out.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return out;
}

ResourceUsage SelfUsage() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return {};
  return FromRusage(ru);
}

ResourceUsage ThreadUsage() {
#if defined(RUSAGE_THREAD)
  rusage ru{};
  if (getrusage(RUSAGE_THREAD, &ru) != 0) return {};
  ResourceUsage out = FromRusage(ru);
  out.max_rss_mb = 0.0;  // Not attributable to the calling thread.
  return out;
#else
  ResourceUsage out = SelfUsage();
  out.max_rss_mb = 0.0;  // Not attributable to the calling thread.
  return out;
#endif
}

ResourceUsage UsageDelta(const ResourceUsage& begin,
                         const ResourceUsage& end) {
  ResourceUsage out;
  out.user_cpu_seconds =
      std::max(0.0, end.user_cpu_seconds - begin.user_cpu_seconds);
  out.sys_cpu_seconds =
      std::max(0.0, end.sys_cpu_seconds - begin.sys_cpu_seconds);
  if (begin.max_rss_mb == 0.0) out.max_rss_mb = end.max_rss_mb;
  return out;
}

}  // namespace tfb::obs
