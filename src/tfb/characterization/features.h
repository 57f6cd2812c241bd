#ifndef TFB_CHARACTERIZATION_FEATURES_H_
#define TFB_CHARACTERIZATION_FEATURES_H_

#include <span>
#include <string>
#include <vector>

#include "tfb/ts/time_series.h"

namespace tfb::characterization {

/// Trend strength (Definition 3): max(0, 1 - var(R)/var(X - S)) from an STL
/// decomposition X = T + S + R at the given period (0 = auto-detect).
double TrendStrength(std::span<const double> x, std::size_t period = 0);

/// Seasonality strength (Definition 4): max(0, 1 - var(R)/var(X - T)).
double SeasonalityStrength(std::span<const double> x, std::size_t period = 0);

/// Shifting value (Definition 6, Algorithm 1): distribution-shift indicator
/// in (0,1) computed from the median crossing-time of m = `num_thresholds`
/// level sets of the z-scored series. 0.5 means no shift; values toward 1
/// (resp. 0) mean the distribution's mass moves late (resp. early) — i.e.
/// an upward (downward) level shift. |value - 0.5| measures severity (see
/// the robustness note in the implementation). 0 for constant series.
double ShiftingValue(std::span<const double> x, int num_thresholds = 100);

/// Transition value (Definition 7, Algorithm 2): trace of the covariance of
/// the 3-symbol transition matrix on the ACF-downsampled series; in
/// [0, 1/3).
double TransitionValue(std::span<const double> x);

/// Correlation for a multivariate series, aggregated with Definition 8's
/// formula mean(P) + 1/(1+var(P)) over all variable pairs. P here is the
/// Pearson correlation between the variables' value series: on synthetic
/// data with homogeneous channels, the paper's catch22-embedding Pearson
/// saturates near its maximum regardless of actual dependence, while
/// value-level correlation tracks it faithfully (see DESIGN.md). Returns 0
/// for univariate input.
double CorrelationValue(const ts::TimeSeries& series,
                        std::size_t max_variables = 64);

/// Both STL-based strengths from one decomposition (cheaper than calling
/// TrendStrength and SeasonalityStrength separately).
struct StlStrengths {
  double trend = 0.0;
  double seasonality = 0.0;
};
StlStrengths ComputeStlStrengths(std::span<const double> x,
                                 std::size_t period = 0);

/// The paper's six-characteristic profile of a dataset (Figures 1, 3, 8).
/// For multivariate series the univariate characteristics are averaged over
/// (a capped number of) variables.
struct Characteristics {
  double trend = 0.0;
  double seasonality = 0.0;
  double shifting = 0.0;
  double transition = 0.0;
  double correlation = 0.0;
  double stationarity_fraction = 0.0;  ///< Fraction of stationary variables.
  bool stationary = false;             ///< Majority-vote stationarity.

  /// Returns {trend, seasonality, stationarity_fraction, shifting,
  /// transition} — the 5-D vector used for PCA coverage maps (Figure 5).
  std::vector<double> ToVector5() const;
};

/// Computes the full profile. `period` 0 = use the series' declared or
/// frequency-default seasonal period, falling back to detection.
/// `max_variables` caps per-variable work on very wide datasets.
Characteristics Characterize(const ts::TimeSeries& series,
                             std::size_t period = 0,
                             std::size_t max_variables = 16);

/// Characterize() over a whole collection, parallelized across series on
/// the process thread pool (characterization is O(series × variables) and
/// fronts every dataset-scale scenario). Each series is profiled whole by
/// one thread under the pool's deterministic static partition, so
/// out[i] is byte-identical to Characterize(series[i], ...) at any thread
/// count.
std::vector<Characteristics> CharacterizeBatch(
    std::span<const ts::TimeSeries> series, std::size_t period = 0,
    std::size_t max_variables = 16);

/// Pretty one-line summary for logs.
std::string ToString(const Characteristics& c);

}  // namespace tfb::characterization

#endif  // TFB_CHARACTERIZATION_FEATURES_H_
