#ifndef TFB_TS_SCALER_H_
#define TFB_TS_SCALER_H_

#include <vector>

#include "tfb/ts/time_series.h"

namespace tfb::ts {

/// Normalization mode used by the evaluation layer. The paper reports MTSF
/// metrics "on normalized data": every method sees the series z-scored with
/// statistics computed on the *training* portion only, which is part of the
/// standardized-pipeline fairness argument (Issue 3).
enum class ScalerKind {
  kNone,
  kZScore,
  kMinMax,
};

/// Per-variable affine scaler fit on the training split and applied to the
/// whole series: y = (x - offset) / scale.
class Scaler {
 public:
  Scaler() = default;

  /// Creates a scaler of the given kind with statistics from `train`.
  static Scaler Fit(const TimeSeries& train, ScalerKind kind);

  /// Applies the transform; series must have the fitted variable count.
  TimeSeries Transform(const TimeSeries& series) const;

  /// Inverts the transform.
  TimeSeries InverseTransform(const TimeSeries& series) const;

  /// The configured kind.
  ScalerKind kind() const { return kind_; }

 private:
  ScalerKind kind_ = ScalerKind::kNone;
  std::vector<double> offset_;
  std::vector<double> scale_;
};

}  // namespace tfb::ts

#endif  // TFB_TS_SCALER_H_
