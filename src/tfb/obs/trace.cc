#include "tfb/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <thread>

#include <sys/syscall.h>
#include <unistd.h>

#include "tfb/base/json.h"

namespace tfb::obs {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point TraceEpoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

std::int64_t CurrentTid() {
#if defined(SYS_gettid)
  return static_cast<std::int64_t>(syscall(SYS_gettid));
#else
  return static_cast<std::int64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7fffffff);
#endif
}

}  // namespace

double TraceNowMicros() {
  return std::chrono::duration<double, std::micro>(Clock::now() - TraceEpoch())
      .count();
}

void Tracer::Enable(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = std::max<std::size_t>(1, capacity);
  ring_.clear();
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
  recorded_ = 0;
  TraceEpoch();  // Pin the epoch no later than the first span.
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::Record(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0) return;  // Enable() never ran.
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[recorded_ % capacity_] = std::move(event);
  }
  ++recorded_;
}

void Tracer::RecordComplete(const char* name, const char* category,
                            double ts_us, double dur_us, std::string args) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = 'X';
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.pid = static_cast<std::int64_t>(getpid());
  event.tid = CurrentTid();
  event.args = std::move(args);
  Record(std::move(event));
}

void Tracer::RecordForeign(TraceEvent event) {
  if (!enabled()) return;
  Record(std::move(event));
}

void Tracer::RecordInstant(const char* name, const char* category,
                           std::string args) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = 'i';
  event.ts_us = TraceNowMicros();
  event.pid = static_cast<std::int64_t>(getpid());
  event.tid = CurrentTid();
  event.args = std::move(args);
  Record(std::move(event));
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_ || capacity_ == 0) return ring_;
  // Full ring: unroll so the snapshot is oldest-first.
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  const std::size_t head = recorded_ % capacity_;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head + i) % capacity_]);
  }
  return out;
}

std::vector<TraceEvent> Tracer::DrainSince(std::uint64_t* cursor) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  if (capacity_ == 0 || *cursor >= recorded_) {
    *cursor = recorded_;
    return out;
  }
  // Oldest index still resident; anything before it was overwritten.
  const std::uint64_t oldest = recorded_ - ring_.size();
  const std::uint64_t begin = std::max(*cursor, oldest);
  out.reserve(static_cast<std::size_t>(recorded_ - begin));
  for (std::uint64_t i = begin; i < recorded_; ++i) {
    out.push_back(ring_[i % capacity_]);
  }
  *cursor = recorded_;
  return out;
}

std::uint64_t Tracer::recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
}

std::string Tracer::ToJson() const {
  std::vector<TraceEvent> events = Snapshot();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  std::string out = "{\"traceEvents\":[";
  char buf[64];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) out += ",";
    out += "{\"name\":";
    base::AppendJsonString(&out, e.name);
    out += ",\"cat\":";
    base::AppendJsonString(&out, e.category);
    out += ",\"ph\":\"";
    out.push_back(e.phase);
    out += "\",\"ts\":";
    std::snprintf(buf, sizeof(buf), "%.3f", e.ts_us);
    out += buf;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f", e.dur_us);
      out += buf;
    }
    if (e.phase == 'i') out += ",\"s\":\"t\"";  // Thread-scoped instant.
    std::snprintf(buf, sizeof(buf), ",\"pid\":%lld,\"tid\":%lld",
                  static_cast<long long>(e.pid),
                  static_cast<long long>(e.tid));
    out += buf;
    if (!e.args.empty()) out += ",\"args\":{" + e.args + "}";
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << ToJson() << '\n';
  return static_cast<bool>(os);
}

Tracer& DefaultTracer() {
  static Tracer* tracer = new Tracer();  // Leaked: outlives all users.
  return *tracer;
}

const char* InternTraceName(const std::string& name) {
  constexpr std::size_t kMaxInterned = 4096;
  static std::mutex* mu = new std::mutex();
  // Leaked: interned names must stay valid for every TraceEvent that
  // points at them, i.e. the process lifetime.
  static auto* pool = new std::set<std::string>();
  const std::lock_guard<std::mutex> lock(*mu);
  const auto it = pool->find(name);
  if (it != pool->end()) return it->c_str();
  if (pool->size() >= kMaxInterned) return "<interned-overflow>";
  return pool->insert(name).first->c_str();
}

ScopedSpan::ScopedSpan(const char* name, const char* category,
                       std::string args)
    : name_(name), category_(category), args_(std::move(args)) {
  active_ = DefaultTracer().enabled();
  if (active_) start_us_ = TraceNowMicros();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const double end_us = TraceNowMicros();
  DefaultTracer().RecordComplete(name_, category_, start_us_,
                                 end_us - start_us_, std::move(args_));
}

std::string ArgsJson(
    std::initializer_list<std::pair<const char*, std::string>> pairs) {
  std::string out;
  for (const auto& [key, value] : pairs) {
    if (!out.empty()) out += ",";
    base::AppendJsonString(&out, key);
    out += ":";
    base::AppendJsonString(&out, value);
  }
  return out;
}

}  // namespace tfb::obs
