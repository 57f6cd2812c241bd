// The two batch workloads.
//
//  - univariate: a scaled Table 6 run. Seeded univariate collection,
//    characterized whole, nine statistical/ML/linear methods per series with
//    the hyper-parameter search on, executed by ShardCoordinator over TCP
//    loopback with a journal, then a --resume pass over the finished
//    journal. Hundreds of small cells: per-cell machinery dominates.
//  - multivariate: a fixed slice of the Tables 7-8 grid. Three Table 5
//    profiles spanning weak to strong trend, all twelve miniatures at 8
//    epochs, no hyper search, in-process BenchmarkRunner::Run at nproc
//    threads. GEMM, nn training and the thread pool dominate; shard,
//    transport, journal and hyper search are bypassed.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "bench_common.h"
#include "tfb/pipeline/shard.h"
#include "tfb/tfb.h"

namespace tfbbench {
namespace {

using tfb::pipeline::BenchmarkTask;
using tfb::pipeline::ResultRow;

// ---- Inputs ----------------------------------------------------------------

/// Univariate series kept per frequency, each cut to a fixed length: every
/// seed then yields the same number of cells of the same sizes, and every
/// cell succeeds under 2 rolling windows.
struct FrequencyQuota {
  tfb::ts::Frequency frequency;
  std::size_t count;
  std::size_t length;
};
constexpr FrequencyQuota kUnivariateQuotas[] = {
    {tfb::ts::Frequency::kYearly, 8, 50},
    {tfb::ts::Frequency::kQuarterly, 10, 90},
    {tfb::ts::Frequency::kMonthly, 10, 160},
    {tfb::ts::Frequency::kWeekly, 12, 200},
    {tfb::ts::Frequency::kDaily, 16, 200},
    {tfb::ts::Frequency::kHourly, 6, 240},
    {tfb::ts::Frequency::kOther, 8, 160},
};
/// Large enough that one draw meets every quota for any seed, so set-up
/// does the same work whatever the seed.
constexpr double kUnivariatePoolScale = 0.06;
constexpr std::size_t kUnivariateWindows = 2;

const std::vector<std::string>& UnivariateMethods() {
  static const std::vector<std::string> methods = {
      "Theta",        "ETS", "ARIMA",   "KalmanFilter", "LinearRegression",
      "RandomForest", "XGB", "NLinear", "DLinear"};
  return methods;
}

constexpr const char* kMultivariateProfiles[] = {"Electricity", "ETTh2",
                                                 "FRED-MD"};
constexpr std::size_t kMultivariateLength = 480;
constexpr std::size_t kMultivariateDim = 4;
constexpr std::size_t kMultivariateWindows = 2;

const std::vector<std::string>& MultivariateMethods() {
  static const std::vector<std::string> methods = {
      "PatchAttention", "CrossAttention", "FrequencyLinear", "NLinear",
      "DLinear",        "MLP",            "N-BEATS",         "StationaryMLP",
      "TCN",            "RNN",            "LinearRegression", "VAR"};
  return methods;
}

struct BatchSpec {
  std::vector<tfb::ts::TimeSeries> series;  ///< Characterized every pass.
  std::vector<BenchmarkTask> tasks;
  /// Hyper-search candidates per task; the runner searches when > 1.
  std::vector<std::size_t> candidates;
  double datagen_s = 0.0;
};

std::size_t UnivariateHorizon(tfb::ts::Frequency frequency) {
  for (const auto& info : tfb::datagen::UnivariateFrequencyTable()) {
    if (info.frequency == frequency) return info.horizon;
  }
  return 8;
}

void CountCandidates(BatchSpec* spec) {
  for (const BenchmarkTask& task : spec->tasks) {
    tfb::pipeline::MethodParams params = task.params;
    params.horizon = task.horizon;
    if (params.period == 0) params.period = task.series.seasonal_period();
    spec->candidates.push_back(
        task.hyper_search
            ? tfb::pipeline::HyperSearchSpace(task.method, params,
                                              task.max_hyper_sets)
                  .size()
            : 1);
  }
}

BatchSpec UnivariateSpec(std::uint64_t seed) {
  BatchSpec spec;
  std::map<tfb::ts::Frequency, std::vector<tfb::ts::TimeSeries>> picked;
  const double t0 = NowSeconds();
  {
    const tfb::obs::ScopedSpan span("bench.datagen", "bench");
    // Draw collections until every quota is met (one draw almost always
    // suffices); the sub-seeds are a fixed function of the seed.
    for (std::uint64_t draw = 0; draw < 16; ++draw) {
      tfb::datagen::UnivariateCollectionOptions options;
      options.scale = kUnivariatePoolScale;
      options.seed = seed * 1000003ull + draw;
      for (const auto& entry :
           tfb::datagen::GenerateUnivariateCollection(options)) {
        const tfb::ts::TimeSeries& s = entry.series;
        for (const FrequencyQuota& q : kUnivariateQuotas) {
          auto& bucket = picked[q.frequency];
          if (q.frequency != s.frequency() || bucket.size() >= q.count ||
              s.length() < q.length) {
            continue;
          }
          tfb::ts::TimeSeries cut = s.Slice(s.length() - q.length, s.length());
          cut.set_name(s.name() + "_d" + std::to_string(draw));
          bucket.push_back(std::move(cut));
        }
      }
      bool full = true;
      for (const FrequencyQuota& q : kUnivariateQuotas) {
        full = full && picked[q.frequency].size() >= q.count;
      }
      if (full) break;
    }
  }
  spec.datagen_s = NowSeconds() - t0;
  for (const FrequencyQuota& q : kUnivariateQuotas) {
    TFB_CHECK_MSG(picked[q.frequency].size() == q.count,
                  "univariate quota not met");
    for (const tfb::ts::TimeSeries& s : picked[q.frequency]) {
      spec.series.push_back(s);
    }
  }
  for (const tfb::ts::TimeSeries& s : spec.series) {
    const std::size_t horizon = UnivariateHorizon(s.frequency());
    for (const std::string& method : UnivariateMethods()) {
      BenchmarkTask task;
      task.dataset = s.name();
      task.series = s;
      task.method = method;
      task.horizon = horizon;
      task.params = tfb::bench::FastParams(horizon);
      task.params.train_epochs = 8;
      task.params.lookback = std::max<std::size_t>(
          4, static_cast<std::size_t>(1.25 * static_cast<double>(horizon)));
      task.rolling.max_windows = kUnivariateWindows;
      task.hyper_search = true;
      spec.tasks.push_back(std::move(task));
    }
  }
  CountCandidates(&spec);
  return spec;
}

BatchSpec MultivariateSpec(std::uint64_t seed) {
  BatchSpec spec;
  std::vector<tfb::datagen::DatasetProfile> profiles;
  const double t0 = NowSeconds();
  {
    const tfb::obs::ScopedSpan span("bench.datagen", "bench");
    for (const char* name : kMultivariateProfiles) {
      profiles.push_back(tfb::bench::ScaledProfile(name, kMultivariateLength,
                                                   kMultivariateDim));
      spec.series.push_back(
          tfb::datagen::GenerateDataset(profiles.back(), seed));
    }
  }
  spec.datagen_s = NowSeconds() - t0;
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    const std::size_t horizon = profiles[d].long_horizon ? 24 : 12;
    for (const std::string& method : MultivariateMethods()) {
      BenchmarkTask task;
      task.dataset = profiles[d].name;
      task.series = spec.series[d];
      task.method = method;
      task.horizon = horizon;
      task.params = tfb::bench::FastParams(horizon);
      task.params.train_epochs = 8;
      task.rolling =
          tfb::bench::FastRolling(profiles[d].split, kMultivariateWindows);
      spec.tasks.push_back(std::move(task));
    }
  }
  CountCandidates(&spec);
  return spec;
}

// ---- One timed pass ----------------------------------------------------------

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double begin_us = 0.0;  ///< Trace clock.
  double end_us = 0.0;
  double coordinator_cpu_s = 0.0;  ///< Univariate: this process during Run.
  std::vector<ResultRow> rows;
  std::string digest;
  /// Seconds from the pass start until half and until 99% of the cells
  /// had completed, as the progress tracker reported them.
  double half_done_s = 0.0;
  double p99_done_s = 0.0;
  tfb::pipeline::ShardRunStats stats;
  // Univariate only: the journal and the resume pass over it.
  std::size_t journal_lines = 0;
  std::size_t journal_bytes = 0;
  std::string resume_digest;
  std::size_t resume_dispatches = 0;
};

void CountJournal(const std::string& path, Pass* pass) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    ++pass->journal_lines;
    pass->journal_bytes += line.size() + 1;
  }
}

/// Runs `run` while a sampler thread polls the program's progress tracker
/// every millisecond, and fills the pass's completion times (from `t0`).
/// The tracker is the one behind /status: both the runner and the shard
/// coordinator report every finished cell to it.
template <typename Run>
void TimeCompletions(double t0, std::size_t cells, Pass* pass, Run&& run) {
  std::atomic<bool> stop{false};
  std::vector<double> first_seen;  // [k]: when k + 1 cells were done.
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Until this run's BeginRun the tracker still shows the last run.
      const tfb::obs::ProgressSnapshot snap =
          tfb::obs::DefaultProgressTracker().Snapshot();
      const std::size_t done = snap.active ? snap.completed : 0;
      while (first_seen.size() < std::min(done, cells)) {
        first_seen.push_back(NowSeconds() - t0);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  run();
  stop.store(true);
  sampler.join();
  while (first_seen.size() < cells) first_seen.push_back(NowSeconds() - t0);
  const auto at = [&](double q) {
    const std::size_t k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(cells)));
    return first_seen[std::clamp<std::size_t>(k, 1, cells) - 1];
  };
  pass->half_done_s = at(0.50);
  pass->p99_done_s = at(0.99);
}

void Characterize(const BatchSpec& spec) {
  const tfb::obs::ScopedSpan span("bench.characterize", "bench");
  const auto profiles = tfb::characterization::CharacterizeBatch(spec.series);
  TFB_CHECK(profiles.size() == spec.series.size());
}

Pass UnivariatePass(const BatchSpec& spec, const RunOptions& options,
                    TraceCollector* trace) {
  const std::string journal = options.workdir + "/univariate.journal.jsonl";
  std::remove(journal.c_str());
  tfb::pipeline::RunnerOptions runner;
  runner.journal_path = journal;
  tfb::pipeline::ShardOptions shard;
  shard.num_workers = options.nproc;
  shard.transport = tfb::pipeline::ShardTransport::kTcp;

  Pass pass;
  const double cpu0 = CpuSeconds();
  const double t0 = NowSeconds();
  pass.begin_us = tfb::obs::TraceNowMicros();
  Characterize(spec);
  // Forked workers inherit the ring and the registry: empty both first.
  if (trace != nullptr) trace->Harvest();
  {
    const tfb::obs::ScopedSpan span("bench.run", "bench");
    const double c0 = SelfCpuSeconds();
    tfb::pipeline::ShardCoordinator coordinator(runner, shard);
    TimeCompletions(t0, spec.tasks.size(), &pass,
                    [&] { pass.rows = coordinator.Run(spec.tasks); });
    pass.stats = coordinator.stats();
    pass.coordinator_cpu_s = SelfCpuSeconds() - c0;
  }
  {
    const tfb::obs::ScopedSpan span("bench.resume", "bench");
    runner.resume = true;
    tfb::pipeline::ShardCoordinator coordinator(runner, shard);
    const std::vector<ResultRow> resumed = coordinator.Run(spec.tasks);
    pass.resume_dispatches = coordinator.stats().shards_dispatched;
    pass.resume_digest = DigestRows(resumed);
  }
  pass.end_us = tfb::obs::TraceNowMicros();
  pass.wall_s = NowSeconds() - t0;
  pass.cpu_s = CpuSeconds() - cpu0;
  pass.digest = DigestRows(pass.rows);
  CountJournal(journal, &pass);
  return pass;
}

Pass MultivariatePass(const BatchSpec& spec, const RunOptions& options) {
  tfb::pipeline::RunnerOptions runner;
  runner.num_threads = options.nproc;
  Pass pass;
  const double cpu0 = CpuSeconds();
  const double t0 = NowSeconds();
  pass.begin_us = tfb::obs::TraceNowMicros();
  Characterize(spec);
  {
    const tfb::obs::ScopedSpan span("bench.run", "bench");
    TimeCompletions(t0, spec.tasks.size(), &pass, [&] {
      pass.rows = tfb::pipeline::BenchmarkRunner(runner).Run(spec.tasks);
    });
  }
  pass.end_us = tfb::obs::TraceNowMicros();
  pass.wall_s = NowSeconds() - t0;
  pass.cpu_s = CpuSeconds() - cpu0;
  pass.digest = DigestRows(pass.rows);
  return pass;
}

// ---- Traced-pass attribution -------------------------------------------------

const char* ParadigmKey(const std::string& method) {
  const auto paradigm = tfb::pipeline::MethodParadigm(method);
  if (!paradigm) return "eval.fit_s.statistical";
  switch (*paradigm) {
    case tfb::pipeline::Paradigm::kStatistical:
      return "eval.fit_s.statistical";
    case tfb::pipeline::Paradigm::kMachineLearning:
      return "eval.fit_s.ml";
    case tfb::pipeline::Paradigm::kDeepLearning:
      return "eval.fit_s.dl";
  }
  return "eval.fit_s.statistical";
}

/// Per-layer figures of one traced pass, from the spans the program and
/// the benchmark recorded plus the counters the program kept.
std::map<std::string, double> Attribute(const TraceCollector& trace,
                                        const Pass& pass,
                                        const RunOptions& options,
                                        std::size_t workers,
                                        RunResult* result) {
  const std::vector<Span>& spans = trace.spans();
  const std::vector<long> parents = ParentsOf(spans);
  const std::vector<double> self = SelfTimesUs(spans, parents);
  const std::int64_t own_pid = getpid();

  std::map<std::string, double> out;
  for (const char* key : {"eval.fit_s.statistical", "eval.fit_s.ml",
                          "eval.fit_s.dl"}) {
    out[key] = 0.0;
  }
  std::vector<double> task_ms;
  double task_us = 0.0;
  double worker_task_us = 0.0;
  double run_us = 0.0;
  std::vector<std::pair<double, double>> work;  // Coverage intervals.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name == "task") {
      task_ms.push_back(s.dur_us / 1e3);
      task_us += s.dur_us;
      if (s.pid != own_pid) worker_task_us += s.dur_us;
      out["runner.self_s"] += self[i] / 1e6;
    } else if (s.name == "attempt") {
      out["runner.self_s"] += self[i] / 1e6;
    } else if (s.name == "hyper_select") {
      out["hyper.s"] += s.dur_us / 1e6;
    } else if (s.name == "fit") {
      // The method is on the enclosing task span.
      long root = parents[i];
      while (root >= 0 && spans[static_cast<std::size_t>(root)].name != "task") {
        root = parents[static_cast<std::size_t>(root)];
      }
      const std::string method =
          root >= 0 ? SpanArg(spans[static_cast<std::size_t>(root)], "method")
                    : std::string();
      out[ParadigmKey(method)] += s.dur_us / 1e6;
    } else if (s.name == "forecast") {
      out["eval.forecast_s"] += s.dur_us / 1e6;
    } else if (s.name == "epoch") {
      out["nn.epochs"] += 1.0;
      out["nn.epoch_s"] += s.dur_us / 1e6;
    } else if (s.name == "bench.characterize") {
      out["characterization.s"] += s.dur_us / 1e6;
    } else if (s.name == "bench.resume") {
      out["journal.resume_s"] += s.dur_us / 1e6;
    } else if (s.name == "bench.run") {
      run_us += s.dur_us;
    }
    if (s.name == "task" || s.name == "shard" ||
        s.name == "bench.characterize" || s.name == "bench.resume") {
      work.emplace_back(s.ts_us, s.end_us());
    }
  }
  out["runner.task_ms_p50"] = Percentile(task_ms, 0.5);
  out["runner.task_ms_max"] = Percentile(task_ms, 1.0);
  out["runner.busy_ratio"] =
      run_us > 0.0 ? task_us / (run_us * static_cast<double>(options.nproc))
                   : 0.0;
  if (workers > 0) {
    out["shard.worker_idle_s"] = std::max(
        0.0, (run_us * static_cast<double>(workers) - worker_task_us) / 1e6);
  }
  const double wall_us = pass.end_us - pass.begin_us;
  out["attribution.coverage"] =
      wall_us > 0.0 ? UnionLength(work, pass.begin_us, pass.end_us) / wall_us
                    : 0.0;
  out["linalg.gemm_calls"] = trace.Counter("tfb_kernel_gemm_calls_total");
  out["linalg.gemm_gflop"] = trace.Counter("tfb_kernel_gemm_flops_total") / 1e9;
  out["parallel.parallel_for"] = trace.Counter("tfb_pool_parallel_for_total");

  // Every executed cell must have come back as a task span; a missing one
  // means spans were lost between a worker and the coordinator.
  result->Check(task_ms.size() == pass.rows.size(),
                "traced pass recorded " + std::to_string(task_ms.size()) +
                    " task spans for " + std::to_string(pass.rows.size()) +
                    " cells");
  return out;
}

// ---- Running a workload --------------------------------------------------------

constexpr int kSetups = 25;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 64;

void CheckRows(const Pass& pass, RunResult* result) {
  std::size_t bad = 0;
  std::string first;
  for (const ResultRow& row : pass.rows) {
    bool ok = row.ok && !row.metrics.empty();
    for (const auto& [metric, value] : row.metrics) {
      ok = ok && std::isfinite(value);
    }
    if (!ok) {
      if (bad == 0) {
        first = row.dataset + "/" + row.method + ": " + row.error;
      }
      ++bad;
    }
  }
  result->Check(bad == 0, std::to_string(bad) +
                              " cells not ok or not finite, first " + first);
}

void RunBatch(const RunOptions& options, bool univariate, RunResult* result) {
  const auto make_spec = [&] {
    return univariate ? UnivariateSpec(options.seed)
                      : MultivariateSpec(options.seed);
  };

  // Set-up, several times: data generation and task construction.
  BatchSpec spec;
  std::vector<double> setup_s;
  std::vector<double> datagen_s;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = NowSeconds();
    spec = make_spec();
    setup_s.push_back(NowSeconds() - t0);
    datagen_s.push_back(spec.datagen_s);
  }

  // Warm-up, part of set-up. On univariate it is the in-process reference
  // run of the same cells, whose rows must equal the sharded ones.
  std::string reference_digest;
  const double warmup0 = NowSeconds();
  if (univariate) {
    tfb::pipeline::RunnerOptions runner;
    runner.num_threads = options.nproc;
    const auto rows = tfb::pipeline::BenchmarkRunner(runner).Run(spec.tasks);
    reference_digest = DigestRows(rows);
  } else {
    reference_digest = MultivariatePass(spec, options).digest;
  }
  // Inputs are built several times and the median taken; the warm-up pass
  // runs once.
  const double warmup_s = NowSeconds() - warmup0;
  for (double& s : setup_s) s += warmup_s;
  result->notes["warmup_s"] = std::to_string(warmup_s);

  const std::size_t workers = univariate ? options.nproc : 0;
  TraceCollector trace;
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  std::map<std::string, std::vector<double>> layers;
  const double deadline = NowSeconds() + options.seconds;
  double longest = 0.0;
  for (std::size_t i = 0; i < kMaxPasses; ++i) {
    const bool enough = plain.size() >= kMinPasses &&
                        (!options.trace || traced.size() >= kMinPasses);
    if (enough && NowSeconds() + longest > deadline) break;
    // Traced runs alternate untraced and traced passes, so the overhead
    // compares passes made under the same conditions.
    const bool traced_pass = options.trace && i % 2 == 1;
    if (traced_pass) {
      trace.Clear();
      trace.Begin();
    }
    Pass pass = univariate
                    ? UnivariatePass(spec, options,
                                     traced_pass ? &trace : nullptr)
                    : MultivariatePass(spec, options);
    if (traced_pass) trace.End();
    longest = std::max(longest, pass.wall_s);

    CheckRows(pass, result);
    result->Check(pass.digest == reference_digest,
                  "row digest " + pass.digest + " differs from " +
                      (univariate ? "the in-process run " : "the warm-up ") +
                      reference_digest);
    if (univariate) {
      result->Check(pass.resume_digest == pass.digest &&
                        pass.resume_dispatches == 0,
                    "resume pass did not adopt every journaled row");
      result->Check(pass.stats.reconnects == 0 &&
                        pass.stats.corrupt_frames == 0,
                    "transport reconnects or corrupt frames on loopback");
    }
    result->attempted += pass.rows.size();
    for (const ResultRow& row : pass.rows) result->failed += row.ok ? 0 : 1;
    if (traced_pass) {
      for (const auto& [name, value] :
           Attribute(trace, pass, options, workers, result)) {
        layers[name].push_back(value);
      }
      if (univariate) {
        layers["shard.coordinator_cpu_s"].push_back(pass.coordinator_cpu_s);
      }
      traced.push_back(std::move(pass));
    } else {
      plain.push_back(std::move(pass));
    }
  }

  // End-to-end metrics (untraced passes).
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> qps;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const Pass& pass : plain) {
    wall.push_back(pass.wall_s);
    cpu.push_back(pass.cpu_s);
    qps.push_back(static_cast<double>(pass.rows.size()) / pass.wall_s);
    p50.push_back(pass.half_done_s * 1e3);
    p99.push_back(pass.p99_done_s * 1e3);
  }
  result->Median("setup_s", setup_s);
  result->Median("wall_s", wall);
  result->Median("cpu_s", cpu);
  result->Set("peak_rss_mb", PeakRssMb());
  result->Median("p50_ms", p50);
  result->Median("p99_ms", p99);
  result->Median("closed_qps", qps);

  // Per-layer metrics. Counts repeat exactly across passes; times are
  // medians over the traced passes.
  const Pass& any = plain.front();
  std::size_t searched = 0;
  std::size_t engaged = 0;
  std::size_t candidates = 0;
  std::size_t windows = 0;
  std::size_t failed_cells = 0;
  for (std::size_t t = 0; t < spec.tasks.size(); ++t) {
    const ResultRow& row = any.rows[t];
    windows += row.num_windows;
    failed_cells += row.ok ? 0 : 1;
    if (spec.candidates[t] <= 1) continue;
    ++searched;
    candidates += spec.candidates[t];
    // The runner notes a selection that was skipped or fell back.
    if (row.note.find("hyper selection") == std::string::npos) ++engaged;
  }
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  result->Set("failed_frac",
              ratio(static_cast<double>(result->failed),
                    static_cast<double>(result->attempted)));
  result->Median("datagen.s", datagen_s);
  result->Set("characterization.series",
              static_cast<double>(spec.series.size()));
  result->Set("runner.cells", static_cast<double>(any.rows.size()));
  result->Set("runner.cells_failed", static_cast<double>(failed_cells));
  result->Set("hyper.candidates", static_cast<double>(candidates));
  result->Set("hyper.engaged_ratio", ratio(static_cast<double>(engaged),
                                           static_cast<double>(searched)));
  result->Set("eval.windows", static_cast<double>(windows));
  result->Set("shard.dispatches",
              static_cast<double>(any.stats.shards_dispatched));
  result->Set("shard.redispatches",
              static_cast<double>(any.stats.redispatches));
  result->Set("transport.reconnects",
              static_cast<double>(any.stats.reconnects));
  result->Set("transport.corrupt_frames",
              static_cast<double>(any.stats.corrupt_frames));
  result->Set("journal.lines", static_cast<double>(any.journal_lines));
  result->Set("journal.bytes", static_cast<double>(any.journal_bytes));
  result->notes["digest"] = any.digest;
  result->notes["passes"] = std::to_string(plain.size());
  result->notes["cells_per_pass"] = std::to_string(any.rows.size());
  result->notes["p50_ms/p99_ms"] =
      "time from pass start until 50% / 99% of the cells had results";
  result->notes["closed_qps"] = "cells per second of wall_s";

  if (options.trace) {
    result->Check(trace.dropped() == 0,
                  "tracer ring dropped " + std::to_string(trace.dropped()) +
                      " events");
    result->Set("obs.trace_dropped", static_cast<double>(trace.dropped()));
    for (const auto& [name, values] : layers) result->Median(name, values);
    std::vector<double> traced_wall;
    for (const Pass& pass : traced) {
      traced_wall.push_back(pass.wall_s);
      result->Check(pass.digest == any.digest,
                    "traced rows differ from untraced rows");
    }
    const double base = QuartilesOf(wall).median;
    result->Set("obs.trace_overhead_pct",
                ratio(QuartilesOf(traced_wall).median - base, base) * 100.0);
  }
}

}  // namespace

void RunUnivariate(const RunOptions& options, RunResult* result) {
  RunBatch(options, /*univariate=*/true, result);
}

void RunMultivariate(const RunOptions& options, RunResult* result) {
  RunBatch(options, /*univariate=*/false, result);
}

}  // namespace tfbbench
