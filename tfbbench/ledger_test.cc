#include "ledger.h"

#include <gtest/gtest.h>

#include <cmath>

namespace tfbbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 1.0), 5.0);
  // rank 0.99 * 99 = 98.01 over 1..100.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_NEAR(Percentile(v, 0.99), 99.01, 1e-9);
}

TEST(QuartilesTest, MatchesPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  Quartiles q = QuartilesOf(ten);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_EQ(q.n, 10u);
  // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  q = QuartilesOf({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(q.q1, 1.0);
  EXPECT_DOUBLE_EQ(q.median, 2.0);
  EXPECT_DOUBLE_EQ(q.q3, 3.0);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = QuartilesOf({1.0, 2.0});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.median, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
  q = QuartilesOf({4.0});
  EXPECT_EQ(q.median, 4.0);
  EXPECT_EQ(q.q1, 4.0);
  EXPECT_EQ(QuartilesOf({}).n, 0u);
}

TEST(ServerTimingTest, ParsesTheServiceHeader) {
  const auto t = ParseServerTiming(
      " queue;dur=0.012, linger;dur=1.950, lease;dur=0.003, "
      "forecast;dur=0.420, total;dur=2.400\r\n");
  ASSERT_EQ(t.size(), 5u);
  EXPECT_DOUBLE_EQ(t.at("queue"), 0.012);
  EXPECT_DOUBLE_EQ(t.at("linger"), 1.95);
  EXPECT_DOUBLE_EQ(t.at("lease"), 0.003);
  EXPECT_DOUBLE_EQ(t.at("forecast"), 0.42);
  EXPECT_DOUBLE_EQ(t.at("total"), 2.4);
}

TEST(ServerTimingTest, SkipsEntriesWithoutDuration) {
  const auto t = ParseServerTiming(
      "cache;desc=\"hit\", db;dur=abc, app;desc=x;dur=5.5, miss, ;dur=1");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t.at("app"), 5.5);
  EXPECT_TRUE(ParseServerTiming("").empty());
}

Span MakeSpan(const char* name, double ts, double dur, std::int64_t tid = 1,
              std::int64_t pid = 1) {
  Span s;
  s.name = name;
  s.pid = pid;
  s.tid = tid;
  s.ts_us = ts;
  s.dur_us = dur;
  return s;
}

TEST(SelfTimeTest, SubtractsNestedChildren) {
  // task [0,100) > attempt [5,95) > fit [10,40), forecast [50,60)
  const std::vector<Span> spans = {
      MakeSpan("fit", 10, 30), MakeSpan("task", 0, 100),
      MakeSpan("forecast", 50, 10), MakeSpan("attempt", 5, 90)};
  const auto parents = ParentsOf(spans);
  EXPECT_EQ(parents[1], -1);
  EXPECT_EQ(parents[3], 1);
  EXPECT_EQ(parents[0], 3);
  EXPECT_EQ(parents[2], 3);
  const auto self = SelfTimesUs(spans, parents);
  EXPECT_DOUBLE_EQ(self[1], 10.0);
  EXPECT_DOUBLE_EQ(self[3], 50.0);
  EXPECT_DOUBLE_EQ(self[0], 30.0);
  EXPECT_DOUBLE_EQ(self[2], 10.0);
}

TEST(SelfTimeTest, OverlappingSiblingsAreCountedOnce) {
  // Two shard grants overlap on one coordinator thread under a run span.
  const std::vector<Span> spans = {MakeSpan("run", 0, 100),
                                   MakeSpan("shard", 10, 50),
                                   MakeSpan("shard", 40, 40)};
  const auto parents = ParentsOf(spans);
  EXPECT_EQ(parents[1], 0);
  EXPECT_EQ(parents[2], 0);
  const auto self = SelfTimesUs(spans, parents);
  EXPECT_DOUBLE_EQ(self[0], 30.0);  // 100 - |[10,80)|
  EXPECT_DOUBLE_EQ(self[1], 50.0);
  EXPECT_DOUBLE_EQ(self[2], 40.0);
}

TEST(SelfTimeTest, LanesAreSeparate) {
  // Same interval on another thread or process is not a child.
  const std::vector<Span> spans = {MakeSpan("run", 0, 100, 1, 1),
                                   MakeSpan("task", 10, 20, 2, 1),
                                   MakeSpan("task", 10, 20, 1, 2)};
  const auto parents = ParentsOf(spans);
  EXPECT_EQ(parents[0], -1);
  EXPECT_EQ(parents[1], -1);
  EXPECT_EQ(parents[2], -1);
  const auto self = SelfTimesUs(spans, parents);
  EXPECT_DOUBLE_EQ(self[0], 100.0);
}

TEST(SelfTimeTest, UnionLengthClips) {
  EXPECT_DOUBLE_EQ(UnionLength({{0, 10}, {5, 15}, {20, 30}}, 0, 100), 25.0);
  EXPECT_DOUBLE_EQ(UnionLength({{0, 10}, {5, 15}, {20, 30}}, 8, 25), 12.0);
  EXPECT_DOUBLE_EQ(UnionLength({}, 0, 1), 0.0);
}

TEST(SpanArgTest, ReadsRenderedArgs) {
  Span s;
  s.args = "\"dataset\":\"ILI\",\"method\":\"VAR\",\"horizon\":\"12\"";
  EXPECT_EQ(SpanArg(s, "method"), "VAR");
  EXPECT_EQ(SpanArg(s, "horizon"), "12");
  EXPECT_EQ(SpanArg(s, "missing"), "");
}

ScheduleOptions Options(std::uint64_t seed) {
  ScheduleOptions o;
  o.seed = seed;
  o.requests = 4000;
  o.rate_qps = 400.0;
  o.hot_weights = {0.5, 0.3, 0.2};
  o.cold_models = 2;
  o.cold_every = 25;
  o.variants = 4;
  return o;
}

TEST(ScheduleTest, IsDeterministicPerSeed) {
  const auto a = MakeSchedule(Options(11));
  const auto b = MakeSchedule(Options(11));
  const auto c = MakeSchedule(Options(12));
  ASSERT_EQ(a.size(), 4000u);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].variant, b[i].variant);
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    differs = differs || a[i].model != c[i].model ||
              a[i].variant != c[i].variant;
  }
  EXPECT_TRUE(differs);
  EXPECT_DOUBLE_EQ(a[400].due_s, 1.0);
}

TEST(ScheduleTest, ColdShareIsExactAndRotates) {
  for (std::uint64_t seed : {1, 2, 3, 99}) {
    const auto s = MakeSchedule(Options(seed));
    std::size_t cold = 0;
    std::vector<std::size_t> per_model(5, 0);
    std::size_t last_cold = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      ++per_model[s[i].model];
      EXPECT_LT(s[i].variant, 4u);
      if (!s[i].cold) {
        EXPECT_LT(s[i].model, 3u);
        continue;
      }
      EXPECT_GE(s[i].model, 3u);
      if (cold > 0) {
        EXPECT_NE(s[i].model, last_cold);
      }
      last_cold = s[i].model;
      ++cold;
    }
    EXPECT_EQ(cold, 160u);  // 4000 / 25
    EXPECT_EQ(per_model[3] + per_model[4], 160u);
    // Skew: the most popular hot model gets the most requests.
    EXPECT_GT(per_model[0], per_model[1]);
    EXPECT_GT(per_model[1], per_model[2]);
  }
}

TEST(DigestTest, IgnoresTimingAndResourceFields) {
  tfb::pipeline::ResultRow row;
  row.dataset = "ILI";
  row.method = "VAR";
  row.horizon = 12;
  row.ok = true;
  row.num_windows = 3;
  row.metrics[tfb::eval::Metric::kMae] = 0.5;
  tfb::pipeline::ResultRow timed = row;
  timed.fit_seconds = 1.5;
  timed.inference_ms_per_window = 2.0;
  timed.cpu_user_seconds = 0.3;
  timed.cpu_sys_seconds = 0.1;
  timed.peak_rss_mb = 40.0;
  EXPECT_EQ(DigestRows({row}), DigestRows({timed}));
  tfb::pipeline::ResultRow other = row;
  other.metrics[tfb::eval::Metric::kMae] = std::nextafter(0.5, 1.0);
  EXPECT_NE(DigestRows({row}), DigestRows({other}));
  EXPECT_NE(DigestRows({row, other}), DigestRows({other, row}));
  EXPECT_EQ(DigestRows({row}).size(), 16u);
}

}  // namespace
}  // namespace tfbbench
