#include "tfb/characterization/features.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "tfb/base/check.h"
#include "tfb/characterization/adf.h"
#include "tfb/fft/fft.h"
#include "tfb/obs/metrics.h"
#include "tfb/parallel/thread_pool.h"
#include "tfb/stats/descriptive.h"
#include "tfb/stl/stl.h"

namespace tfb::characterization {

namespace {

std::size_t ResolvePeriod(std::span<const double> x, std::size_t period) {
  if (period > 1) return period;
  return fft::EstimatePeriod(x);
}

StlStrengths StrengthsFromStl(std::span<const double> x,
                              const stl::StlResult& d) {
  StlStrengths s;
  const std::size_t n = x.size();
  std::vector<double> detrended(n);
  std::vector<double> deseasoned(n);
  for (std::size_t i = 0; i < n; ++i) {
    detrended[i] = x[i] - d.trend[i];
    deseasoned[i] = x[i] - d.seasonal[i];
  }
  const double var_r = stats::Variance(d.remainder);
  const double var_deseason = stats::Variance(deseasoned);  // X - S
  const double var_detrend = stats::Variance(detrended);    // X - T
  s.trend = var_deseason > 1e-15
                ? std::max(0.0, 1.0 - var_r / var_deseason)
                : 0.0;
  s.seasonality = var_detrend > 1e-15
                      ? std::max(0.0, 1.0 - var_r / var_detrend)
                      : 0.0;
  return s;
}

}  // namespace

StlStrengths ComputeStlStrengths(std::span<const double> x,
                                 std::size_t period) {
  if (x.size() < 8) return {};
  const std::size_t p = ResolvePeriod(x, period);
  const stl::StlResult d = stl::StlDecompose(x, p);
  return StrengthsFromStl(x, d);
}

double TrendStrength(std::span<const double> x, std::size_t period) {
  return ComputeStlStrengths(x, period).trend;
}

double SeasonalityStrength(std::span<const double> x, std::size_t period) {
  return ComputeStlStrengths(x, period).seasonality;
}

double ShiftingValue(std::span<const double> x, int num_thresholds) {
  TFB_CHECK(num_thresholds >= 2);
  const std::size_t t = x.size();
  if (t < 4) return 0.0;
  const std::vector<double> z = stats::ZScore(x);
  const double z_min = stats::Min(z);
  const double z_max = stats::Max(z);
  if (z_max - z_min < 1e-12) return 0.0;

  // For each threshold s_i, M_i is the median *index* of points above s_i:
  // if the high values concentrate late (or early) in the series the median
  // crossing time departs from T/2, signalling a distribution shift.
  //
  // Robustness note: Algorithm 1 as printed min-max-normalizes the medians
  // vector, which for shift-free series amplifies pure jitter to [0,1] and
  // makes the statistic noise-dominated. We normalize each median by the
  // series length instead (catch22's DN_OutlierInclude "mdrmd" convention),
  // preserving the intended semantics — 0.5 = no shift, values toward 1
  // (resp. 0) = mass concentrating late (resp. early) — with stable output.
  std::vector<double> medians;
  medians.reserve(num_thresholds);
  for (int i = 0; i < num_thresholds; ++i) {
    const double threshold =
        z_min + static_cast<double>(i) * (z_max - z_min) /
                    static_cast<double>(num_thresholds);
    std::vector<double> indices;
    for (std::size_t j = 0; j < t; ++j) {
      if (z[j] > threshold) indices.push_back(static_cast<double>(j));
    }
    if (indices.size() < 2) break;
    medians.push_back(stats::Median(indices) / static_cast<double>(t - 1));
  }
  if (medians.size() < 2) return 0.0;
  return stats::Median(medians);
}

double TransitionValue(std::span<const double> x) {
  if (x.size() < 8) return 0.0;
  const std::size_t tau =
      std::max<std::size_t>(1, fft::FirstZeroAutocorrelation(x));
  std::vector<double> down;
  for (std::size_t i = 0; i < x.size(); i += tau) down.push_back(x[i]);
  const std::size_t tp = down.size();
  if (tp < 4) return 0.0;

  // Rank-based 3-symbol coarse graining (Algorithm 2's argsort step).
  std::vector<std::size_t> order(tp);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return down[a] < down[b];
  });
  std::vector<int> symbol(tp);
  for (std::size_t rank = 0; rank < tp; ++rank) {
    symbol[order[rank]] = std::min(2, static_cast<int>(3 * rank / tp));
  }

  double m[3][3] = {};
  for (std::size_t j = 0; j + 1 < tp; ++j) m[symbol[j]][symbol[j + 1]] += 1.0;
  const double total = static_cast<double>(tp - 1);
  for (auto& row : m)
    for (double& v : row) v /= total;

  double trace = 0.0;
  for (int c = 0; c < 3; ++c) {
    const double mean = (m[0][c] + m[1][c] + m[2][c]) / 3.0;
    double var = 0.0;
    for (int r = 0; r < 3; ++r) var += (m[r][c] - mean) * (m[r][c] - mean);
    trace += var / 2.0;
  }
  return trace;
}

double CorrelationValue(const ts::TimeSeries& series,
                        std::size_t max_variables) {
  const std::size_t n = std::min(series.num_variables(), max_variables);
  if (n < 2) return 0.0;
  std::vector<std::vector<double>> columns(n);
  for (std::size_t v = 0; v < n; ++v) columns[v] = series.Column(v);
  std::vector<double> pairwise;
  pairwise.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      pairwise.push_back(stats::PearsonCorrelation(columns[i], columns[j]));
    }
  }
  const double mean = stats::Mean(pairwise);
  const double var = stats::Variance(pairwise);
  return mean + 1.0 / (1.0 + var);
}

std::vector<double> Characteristics::ToVector5() const {
  return {trend, seasonality, stationarity_fraction, shifting, transition};
}

Characteristics Characterize(const ts::TimeSeries& series, std::size_t period,
                             std::size_t max_variables) {
  Characteristics c;
  const std::size_t n = std::min<std::size_t>(
      series.num_variables(), std::max<std::size_t>(max_variables, 1));
  if (series.length() < 8 || n == 0) return c;

  std::size_t p = period;
  if (p == 0) p = series.seasonal_period();
  if (p == 0) p = ts::DefaultSeasonalPeriod(series.frequency());

  std::size_t stationary_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::vector<double> col = series.Column(v);
    const StlStrengths s = ComputeStlStrengths(col, p);
    c.trend += s.trend;
    c.seasonality += s.seasonality;
    c.shifting += ShiftingValue(col);
    c.transition += TransitionValue(col);
    if (IsStationary(col)) ++stationary_count;
  }
  const double inv = 1.0 / static_cast<double>(n);
  c.trend *= inv;
  c.seasonality *= inv;
  c.shifting *= inv;
  c.transition *= inv;
  c.stationarity_fraction =
      static_cast<double>(stationary_count) / static_cast<double>(n);
  c.stationary = c.stationarity_fraction >= 0.5;
  c.correlation = CorrelationValue(series, max_variables);
  return c;
}

std::vector<Characteristics> CharacterizeBatch(
    std::span<const ts::TimeSeries> series, std::size_t period,
    std::size_t max_variables) {
  std::vector<Characteristics> out(series.size());
  if (series.empty()) return out;
  if (obs::Enabled()) {
    obs::DefaultRegistry()
        .GetCounter("tfb_characterize_batch_series_total")
        .Increment(static_cast<double>(series.size()));
  }
  // Grain 1: each series is profiled whole by one thread (series, not
  // features, are the deterministic unit of work). Nested ParallelFor
  // calls underneath (GEMM inside ADF solves, etc.) fall back to inline
  // execution via the pool's busy-CAS, so the math per series is exactly
  // the serial math.
  parallel::ThreadPool::Default().ParallelFor(
      0, series.size(), 1,
      [&series, &out, period, max_variables](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = Characterize(series[i], period, max_variables);
        }
      });
  return out;
}

std::string ToString(const Characteristics& c) {
  std::ostringstream os;
  os.precision(3);
  os << "trend=" << c.trend << " seasonality=" << c.seasonality
     << " shifting=" << c.shifting << " transition=" << c.transition
     << " correlation=" << c.correlation
     << " stationary=" << (c.stationary ? "yes" : "no") << " ("
     << c.stationarity_fraction << ")";
  return os.str();
}

}  // namespace tfb::characterization
