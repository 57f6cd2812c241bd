#include "tfb/ts/scaler.h"

#include <algorithm>
#include <cmath>

#include "tfb/stats/descriptive.h"

namespace tfb::ts {

Scaler Scaler::Fit(const TimeSeries& train, ScalerKind kind) {
  Scaler s;
  s.kind_ = kind;
  const std::size_t n = train.num_variables();
  s.offset_.assign(n, 0.0);
  s.scale_.assign(n, 1.0);
  if (kind == ScalerKind::kNone) return s;
  for (std::size_t v = 0; v < n; ++v) {
    const std::vector<double> col = train.Column(v);
    if (kind == ScalerKind::kZScore) {
      s.offset_[v] = stats::Mean(col);
      const double sd = stats::StdDev(col);
      s.scale_[v] = sd > 1e-12 ? sd : 1.0;
    } else {  // kMinMax
      const double lo = stats::Min(col);
      const double hi = stats::Max(col);
      s.offset_[v] = lo;
      s.scale_[v] = (hi - lo) > 1e-12 ? (hi - lo) : 1.0;
    }
  }
  return s;
}

TimeSeries Scaler::Transform(const TimeSeries& series) const {
  TFB_CHECK(series.num_variables() == offset_.size() ||
            kind_ == ScalerKind::kNone);
  TimeSeries out = series;
  if (kind_ == ScalerKind::kNone) return out;
  for (std::size_t t = 0; t < out.length(); ++t) {
    for (std::size_t v = 0; v < out.num_variables(); ++v) {
      out.at(t, v) = (out.at(t, v) - offset_[v]) / scale_[v];
    }
  }
  return out;
}

TimeSeries Scaler::InverseTransform(const TimeSeries& series) const {
  TFB_CHECK(series.num_variables() == offset_.size() ||
            kind_ == ScalerKind::kNone);
  TimeSeries out = series;
  if (kind_ == ScalerKind::kNone) return out;
  for (std::size_t t = 0; t < out.length(); ++t) {
    for (std::size_t v = 0; v < out.num_variables(); ++v) {
      out.at(t, v) = out.at(t, v) * scale_[v] + offset_[v];
    }
  }
  return out;
}

}  // namespace tfb::ts
