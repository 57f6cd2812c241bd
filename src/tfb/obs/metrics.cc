#include "tfb/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>

#include "tfb/base/check.h"
#include "tfb/base/json.h"

namespace tfb::obs {

namespace {

std::atomic<bool> g_enabled{false};

// %.17g: values survive an export/parse round trip bit-exactly, matching
// the journal's convention.
std::string FormatDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Prometheus has no NaN-safe text form for bucket bounds; +inf spells "+Inf".
std::string FormatBound(double bound) {
  if (std::isinf(bound)) return "+Inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", bound);
  return buf;
}

/// Splits an embedded-label name into (base, labels): "a{b=\"c\"}" ->
/// ("a", "{b=\"c\"}"). Histograms need this to splice `le` into the label
/// set of their *_bucket lines.
void SplitLabels(const std::string& name, std::string* base,
                 std::string* labels) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
  } else {
    *base = name.substr(0, brace);
    *labels = name.substr(brace);
  }
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  TFB_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

void Histogram::Observe(double value) {
  const std::size_t i = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::MergeBuckets(const std::vector<std::uint64_t>& bucket_deltas,
                             double sum_delta) {
  if (bucket_deltas.size() != buckets_.size()) return;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < bucket_deltas.size(); ++i) {
    buckets_[i].fetch_add(bucket_deltas[i], std::memory_order_relaxed);
    total += bucket_deltas[i];
  }
  count_.fetch_add(total, std::memory_order_relaxed);
  sum_.fetch_add(sum_delta, std::memory_order_relaxed);
}

double Histogram::Mean() const {
  const std::uint64_t n = Count();
  return n > 0 ? Sum() / static_cast<double>(n) : 0.0;
}

std::vector<std::uint64_t> Histogram::CumulativeCounts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    out[i] = running;
  }
  return out;
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::Quantile(double q) const {
  const std::vector<std::uint64_t> cumulative = CumulativeCounts();
  const std::uint64_t n = cumulative.empty() ? 0 : cumulative.back();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(n);
  std::size_t i = 0;
  while (i < cumulative.size() &&
         static_cast<double>(cumulative[i]) < rank) {
    ++i;
  }
  if (i >= bounds_.size()) {
    // +inf bucket: no upper edge; report its lower bound.
    return bounds_.empty() ? 0.0 : bounds_.back();
  }
  const double upper = bounds_[i];
  const double lower = i > 0 ? bounds_[i - 1] : 0.0;
  const std::uint64_t below = i > 0 ? cumulative[i - 1] : 0;
  const std::uint64_t in_bucket = cumulative[i] - below;
  if (in_bucket == 0) return upper;
  const double fraction =
      (rank - static_cast<double>(below)) / static_cast<double>(in_bucket);
  return lower + std::clamp(fraction, 0.0, 1.0) * (upper - lower);
}

std::vector<double> ExponentialBounds(double first, double factor,
                                      std::size_t count) {
  TFB_CHECK(first > 0.0 && factor > 1.0);
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = first;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

Registry::Shard& Registry::ShardFor(const std::string& name) {
  return shards_[std::hash<std::string>{}(name) % kShards];
}

Counter& Registry::GetCounter(const std::string& name) {
  Shard& shard = ShardFor(name);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  auto& slot = shard.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  Shard& shard = ShardFor(name);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  auto& slot = shard.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name,
                                  const std::vector<double>& bounds) {
  Shard& shard = ShardFor(name);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  auto& slot = shard.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

std::string Registry::ToPrometheusText() const {
  // Snapshot under the shard locks into sorted maps so the exposition is
  // deterministic regardless of shard hashing.
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, const Histogram*> histograms;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [name, c] : shard.counters) counters[name] = c->Value();
    for (const auto& [name, g] : shard.gauges) gauges[name] = g->Value();
    for (const auto& [name, h] : shard.histograms) {
      histograms[name] = h.get();
    }
  }
  std::string out;
  for (const auto& [name, value] : counters) {
    std::string base, labels;
    SplitLabels(name, &base, &labels);
    out += "# TYPE " + base + " counter\n";
    out += name + " " + FormatDouble(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    std::string base, labels;
    SplitLabels(name, &base, &labels);
    out += "# TYPE " + base + " gauge\n";
    out += name + " " + FormatDouble(value) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    std::string base, labels;
    SplitLabels(name, &base, &labels);
    // Merge `le` into any embedded label set: {a="b"} -> {a="b",le="x"}.
    const std::string label_prefix =
        labels.empty() ? "{" : labels.substr(0, labels.size() - 1) + ",";
    out += "# TYPE " + base + " histogram\n";
    const std::vector<std::uint64_t> cumulative = h->CumulativeCounts();
    for (std::size_t i = 0; i < cumulative.size(); ++i) {
      const double bound = i < h->bounds().size()
                               ? h->bounds()[i]
                               : std::numeric_limits<double>::infinity();
      out += base + "_bucket" + label_prefix + "le=\"" + FormatBound(bound) +
             "\"} " + std::to_string(cumulative[i]) + "\n";
    }
    out += base + "_sum" + labels + " " + FormatDouble(h->Sum()) + "\n";
    out += base + "_count" + labels + " " + std::to_string(h->Count()) + "\n";
  }
  return out;
}

std::string Registry::ToJson() const {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, const Histogram*> histograms;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [name, c] : shard.counters) counters[name] = c->Value();
    for (const auto& [name, g] : shard.gauges) gauges[name] = g->Value();
    for (const auto& [name, h] : shard.histograms) {
      histograms[name] = h.get();
    }
  }
  std::string out = "{";
  bool first = true;
  const auto append_scalar = [&](const std::string& name, const char* kind,
                                 double value) {
    if (!first) out += ",";
    first = false;
    base::AppendJsonString(&out, name);
    out += ":{\"type\":\"";
    out += kind;
    out += "\",\"value\":" + FormatDouble(value) + "}";
  };
  for (const auto& [name, value] : counters) {
    append_scalar(name, "counter", value);
  }
  for (const auto& [name, value] : gauges) append_scalar(name, "gauge", value);
  for (const auto& [name, h] : histograms) {
    if (!first) out += ",";
    first = false;
    base::AppendJsonString(&out, name);
    // Quantiles of an empty histogram are undefined; render null so a
    // dashboard cannot mistake "no data yet" for a measured 0.
    const bool empty = h->Count() == 0;
    const auto quantile = [&](double q) {
      return empty ? std::string("null") : FormatDouble(h->Quantile(q));
    };
    out += ":{\"type\":\"histogram\",\"count\":" + std::to_string(h->Count()) +
           ",\"sum\":" + FormatDouble(h->Sum()) +
           ",\"p50\":" + quantile(0.5) + ",\"p95\":" + quantile(0.95) +
           ",\"p99\":" + quantile(0.99) + ",\"buckets\":[";
    const std::vector<std::uint64_t> cumulative = h->CumulativeCounts();
    for (std::size_t i = 0; i < cumulative.size(); ++i) {
      if (i > 0) out += ",";
      const double bound = i < h->bounds().size()
                               ? h->bounds()[i]
                               : std::numeric_limits<double>::infinity();
      out += "{\"le\":";
      if (std::isinf(bound)) {
        out += "\"+Inf\"";
      } else {
        out += FormatDouble(bound);
      }
      out += ",\"count\":" + std::to_string(cumulative[i]) + "}";
    }
    out += "]}";
  }
  out += "}";
  return out;
}

Registry::Snapshot Registry::TakeSnapshot() const {
  Snapshot snap;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [name, c] : shard.counters) {
      snap.counters[name] = c->Value();
    }
    for (const auto& [name, g] : shard.gauges) snap.gauges[name] = g->Value();
    for (const auto& [name, h] : shard.histograms) {
      Snapshot::HistogramState& state = snap.histograms[name];
      state.bounds = h->bounds();
      state.buckets = h->BucketCounts();
      state.sum = h->Sum();
    }
  }
  return snap;
}

void Registry::Reset() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.counters.clear();
    shard.gauges.clear();
    shard.histograms.clear();
  }
}

Registry& DefaultRegistry() {
  static Registry* registry = new Registry();  // Leaked: outlives all users.
  return *registry;
}

bool WriteMetricsFile(const Registry& registry, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  os << (json ? registry.ToJson() : registry.ToPrometheusText());
  if (json) os << '\n';
  return static_cast<bool>(os);
}

}  // namespace tfb::obs
