#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <random>

#include "tfb/serve/json.h"

namespace tfbbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles out;
  out.n = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  if (ld == 1) {
    out.q1 = out.median = out.q3 = values[0];
    return out;
  }
  // CPython statistics.quantiles, method="exclusive", n=4.
  const long n = 4;
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(n - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  out.q1 = cut[0];
  out.median = cut[1];
  out.q3 = cut[2];
  return out;
}

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r' || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::map<std::string, double> ParseServerTiming(std::string_view header) {
  std::map<std::string, double> out;
  while (!header.empty()) {
    const std::size_t comma = header.find(',');
    const std::string_view entry = Trim(header.substr(0, comma));
    header = comma == std::string_view::npos ? std::string_view()
                                             : header.substr(comma + 1);
    const std::size_t semi = entry.find(';');
    if (semi == std::string_view::npos) continue;
    const std::string_view name = Trim(entry.substr(0, semi));
    std::string_view params = entry.substr(semi + 1);
    while (!params.empty() && !name.empty()) {
      const std::size_t next = params.find(';');
      const std::string_view param = Trim(params.substr(0, next));
      params = next == std::string_view::npos ? std::string_view()
                                              : params.substr(next + 1);
      if (param.size() <= 4 || param.substr(0, 4) != "dur=") continue;
      const std::string number(param.substr(4));
      char* end = nullptr;
      const double value = std::strtod(number.c_str(), &end);
      if (end != number.c_str() && *end == '\0' && std::isfinite(value)) {
        out[std::string(name)] = value;
      }
      break;
    }
  }
  return out;
}

double UnionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_a = 0.0;
  double cur_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

std::vector<long> ParentsOf(const std::vector<Span>& spans) {
  std::vector<long> parents(spans.size(), -1);
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Group by lane, then outer spans before the spans they contain.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.pid != y.pid) return x.pid < y.pid;
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    if (x.dur_us != y.dur_us) return x.dur_us > y.dur_us;
    return a < b;
  });
  // Timestamps come from a microsecond clock in doubles; allow rounding.
  constexpr double kSlackUs = 0.5;
  std::vector<std::size_t> stack;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const Span& s = spans[i];
    if (k > 0) {
      const Span& prev = spans[order[k - 1]];
      if (prev.pid != s.pid || prev.tid != s.tid) stack.clear();
    }
    // The innermost open span that contains s is its parent; spans that
    // ended before s, or that only partly overlap it, are skipped.
    while (!stack.empty() &&
           spans[stack.back()].end_us() + kSlackUs < s.end_us()) {
      stack.pop_back();
    }
    if (!stack.empty()) parents[i] = static_cast<long>(stack.back());
    stack.push_back(i);
  }
  return parents;
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans,
                                const std::vector<long>& parents) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (parents[i] >= 0) {
      children[static_cast<std::size_t>(parents[i])].emplace_back(
          spans[i].ts_us, spans[i].end_us());
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double covered =
        UnionLength(children[i], spans[i].ts_us, spans[i].end_us());
    self[i] = std::max(0.0, spans[i].dur_us - covered);
  }
  return self;
}

std::string SpanArg(const Span& span, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const std::size_t at = span.args.find(needle);
  if (at == std::string::npos) return std::string();
  const std::size_t begin = at + needle.size();
  const std::size_t end = span.args.find('"', begin);
  if (end == std::string::npos) return std::string();
  return span.args.substr(begin, end - begin);
}

std::vector<ScheduledRequest> MakeSchedule(const ScheduleOptions& options) {
  std::vector<ScheduledRequest> out(options.requests);
  // mt19937_64's output sequence is fixed by the standard; the weighted
  // draw is done by hand because std::discrete_distribution is not.
  std::mt19937_64 rng(options.seed);
  double total = 0.0;
  for (const double w : options.hot_weights) total += w;
  const std::size_t hot = options.hot_weights.size();
  std::size_t next_cold = 0;
  for (std::size_t i = 0; i < options.requests; ++i) {
    ScheduledRequest& r = out[i];
    r.due_s = static_cast<double>(i) / options.rate_qps;
    const double u =
        static_cast<double>(rng() >> 11) * 0x1.0p-53 * total;
    const std::size_t variant = static_cast<std::size_t>(rng() >> 33);
    r.variant = options.variants > 0 ? variant % options.variants : 0;
    if (options.cold_models > 0 && options.cold_every > 0 &&
        (i + 1) % options.cold_every == 0) {
      r.cold = true;
      r.model = hot + next_cold;
      next_cold = (next_cold + 1) % options.cold_models;
      continue;
    }
    double acc = 0.0;
    r.model = hot > 0 ? hot - 1 : 0;
    for (std::size_t m = 0; m < hot; ++m) {
      acc += options.hot_weights[m];
      if (u < acc) {
        r.model = m;
        break;
      }
    }
  }
  return out;
}

std::string CanonicalRow(const tfb::pipeline::ResultRow& row) {
  std::string out;
  tfb::serve::AppendJsonString(&out, row.dataset);
  out += '|';
  tfb::serve::AppendJsonString(&out, row.method);
  out += '|' + std::to_string(row.horizon) + '|' + (row.ok ? "ok" : "failed") +
         '|';
  tfb::serve::AppendJsonString(&out, row.error);
  out += '|';
  tfb::serve::AppendJsonString(&out, row.selected_config);
  out += std::string("|") + (row.used_fallback ? "fallback" : "primary") + '|';
  tfb::serve::AppendJsonString(&out, row.note);
  out += '|' + std::to_string(row.attempts) + '|' +
         std::to_string(row.num_windows);
  for (const auto& [metric, value] : row.metrics) {
    out += '|' + tfb::eval::MetricName(metric) + '=';
    tfb::serve::AppendJsonDouble(&out, value);
  }
  return out;
}

std::string DigestRows(const std::vector<tfb::pipeline::ResultRow>& rows) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& row : rows) {
    for (const unsigned char c : CanonicalRow(row) + '\n') {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace tfbbench
