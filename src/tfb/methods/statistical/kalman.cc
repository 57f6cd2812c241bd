#include "tfb/methods/statistical/kalman.h"

#include <algorithm>
#include <cmath>

#include "tfb/base/check.h"
#include "tfb/methods/serialize_util.h"
#include "tfb/optimize/nelder_mead.h"
#include "tfb/stats/descriptive.h"

namespace tfb::methods {

namespace {

// Structural model matrices for a local linear trend plus a trigonometric
// seasonal with `harmonics` frequency pairs at period `period`.
struct StateSpace {
  linalg::Matrix f;        // transition
  std::vector<double> h;   // observation row
  std::vector<double> q;   // process-noise diagonal
  std::size_t dim = 0;
};

StateSpace BuildStateSpace(std::size_t period, int harmonics, double q_level,
                           double q_slope, double q_seasonal) {
  const bool seasonal = period > 1 && harmonics > 0;
  const int hn = seasonal ? harmonics : 0;
  StateSpace ss;
  ss.dim = 2 + 2 * static_cast<std::size_t>(hn);
  ss.f = linalg::Matrix(ss.dim, ss.dim);
  ss.h.assign(ss.dim, 0.0);
  ss.q.assign(ss.dim, 0.0);
  // Local linear trend.
  ss.f(0, 0) = 1.0;
  ss.f(0, 1) = 1.0;
  ss.f(1, 1) = 1.0;
  ss.h[0] = 1.0;
  ss.q[0] = q_level;
  ss.q[1] = q_slope;
  // Trigonometric seasonal blocks.
  for (int j = 0; j < hn; ++j) {
    const double lambda =
        2.0 * M_PI * static_cast<double>(j + 1) / static_cast<double>(period);
    const std::size_t base = 2 + 2 * static_cast<std::size_t>(j);
    ss.f(base, base) = std::cos(lambda);
    ss.f(base, base + 1) = std::sin(lambda);
    ss.f(base + 1, base) = -std::sin(lambda);
    ss.f(base + 1, base + 1) = std::cos(lambda);
    ss.h[base] = 1.0;
    ss.q[base] = q_seasonal;
    ss.q[base + 1] = q_seasonal;
  }
  return ss;
}

// Runs the Kalman filter over y; returns -loglik (up to constants) and,
// optionally, the final state mean for forecasting.
double RunFilter(const StateSpace& ss, double r_obs,
                 const std::vector<double>& y, std::vector<double>* x_out) {
  const std::size_t m = ss.dim;
  std::vector<double> x(m, 0.0);
  if (!y.empty()) x[0] = y[0];
  // Diffuse-ish initial covariance.
  linalg::Matrix p = linalg::Matrix::Identity(m);
  p *= 1e4;

  double neg_loglik = 0.0;
  std::vector<double> xp(m);
  linalg::Matrix fp(m, m);
  linalg::Matrix pp(m, m);
  std::vector<double> ph(m);  // Pp H'
  for (double obs : y) {
    // Predict: xp = F x; Pp = F P F' + Q.
    for (std::size_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < m; ++j) s += ss.f(i, j) * x[j];
      xp[i] = s;
    }
    // F P and (F P) F' inline, in linalg::kernel's summation order (each
    // element accumulated in ascending k from +0), so the bits equal
    // linalg::MatMul/MatMulT without two allocations and two GEMM
    // dispatches per step.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) fp(i, j) = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        const double fik = ss.f(i, k);
        for (std::size_t j = 0; j < m; ++j) fp(i, j) += fik * p(k, j);
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) pp(i, j) = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        const double fpik = fp(i, k);
        for (std::size_t j = 0; j < m; ++j) pp(i, j) += fpik * ss.f(j, k);
      }
    }
    for (std::size_t i = 0; i < m; ++i) pp(i, i) += ss.q[i];

    // Innovation.
    double y_pred = 0.0;
    for (std::size_t i = 0; i < m; ++i) y_pred += ss.h[i] * xp[i];
    const double v = obs - y_pred;
    for (std::size_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < m; ++j) s += pp(i, j) * ss.h[j];
      ph[i] = s;
    }
    double f_var = r_obs;
    for (std::size_t i = 0; i < m; ++i) f_var += ss.h[i] * ph[i];
    f_var = std::max(f_var, 1e-10);
    neg_loglik += 0.5 * (std::log(f_var) + v * v / f_var);

    // Update: x = xp + K v; P = Pp - K (Pp H')'.
    for (std::size_t i = 0; i < m; ++i) {
      const double k = ph[i] / f_var;
      x[i] = xp[i] + k * v;
    }
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        p(i, j) = pp(i, j) - ph[i] * ph[j] / f_var;
      }
    }
  }
  if (x_out != nullptr) *x_out = std::move(x);
  return neg_loglik;
}

}  // namespace

KalmanForecaster::ChannelModel KalmanForecaster::FitChannel(
    const std::vector<double>& y) const {
  ChannelModel m;
  m.period = options_.period;
  m.harmonics = (m.period > 1 && y.size() >= 2 * m.period)
                    ? options_.seasonal_harmonics
                    : 0;
  const double var = std::max(stats::Variance(y), 1e-6);
  m.q_level = 0.1 * var;
  m.q_slope = 0.01 * var;
  m.q_seasonal = 0.01 * var;
  m.r_obs = 0.5 * var;
  if (!options_.optimize_noise || y.size() < 12) return m;

  // Fit log-variances on a suffix to bound the filter cost.
  const std::size_t fit_len = std::min<std::size_t>(y.size(), 400);
  const std::vector<double> tail(y.end() - fit_len, y.end());
  auto objective = [&](const std::vector<double>& logv) {
    const StateSpace ss =
        BuildStateSpace(m.period, m.harmonics, std::exp(logv[0]),
                        std::exp(logv[1]), std::exp(logv[2]));
    return RunFilter(ss, std::exp(logv[3]), tail, nullptr);
  };
  std::vector<double> x0 = {std::log(m.q_level), std::log(m.q_slope),
                            std::log(m.q_seasonal), std::log(m.r_obs)};
  optimize::NelderMeadOptions nm;
  nm.max_iterations = 120;
  nm.initial_step = 1.0;
  const optimize::NelderMeadResult r = optimize::NelderMead(objective, x0, nm);
  m.q_level = std::exp(r.x[0]);
  m.q_slope = std::exp(r.x[1]);
  m.q_seasonal = std::exp(r.x[2]);
  m.r_obs = std::exp(r.x[3]);
  return m;
}

std::vector<double> KalmanForecaster::ForecastChannel(
    const ChannelModel& m, const std::vector<double>& y,
    std::size_t horizon) const {
  std::vector<double> out(horizon, y.empty() ? 0.0 : y.back());
  if (y.size() < 4) return out;
  const StateSpace ss = BuildStateSpace(m.period, m.harmonics, m.q_level,
                                        m.q_slope, m.q_seasonal);
  std::vector<double> x;
  // Filter over a bounded suffix: the state carries everything we need.
  const std::size_t run_len = std::min<std::size_t>(y.size(), 1200);
  const std::vector<double> tail(y.end() - run_len, y.end());
  RunFilter(ss, m.r_obs, tail, &x);
  // Propagate the state mean forward.
  std::vector<double> next(ss.dim);
  for (std::size_t h = 0; h < horizon; ++h) {
    for (std::size_t i = 0; i < ss.dim; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < ss.dim; ++j) s += ss.f(i, j) * x[j];
      next[i] = s;
    }
    x = next;
    double pred = 0.0;
    for (std::size_t i = 0; i < ss.dim; ++i) pred += ss.h[i] * x[i];
    out[h] = pred;
  }
  return out;
}

void KalmanForecaster::Fit(const ts::TimeSeries& train) {
  TFB_CHECK(train.length() > 0);
  if (options_.period == 0) {
    options_.period = train.seasonal_period() > 0
                          ? train.seasonal_period()
                          : ts::DefaultSeasonalPeriod(train.frequency());
  }
  models_.clear();
  models_.reserve(train.num_variables());
  for (std::size_t v = 0; v < train.num_variables(); ++v) {
    models_.push_back(FitChannel(train.Column(v)));
  }
}

ts::TimeSeries KalmanForecaster::Forecast(const ts::TimeSeries& history,
                                          std::size_t horizon) {
  TFB_CHECK(!models_.empty());
  TFB_CHECK(history.num_variables() == models_.size());
  linalg::Matrix values(horizon, history.num_variables());
  for (std::size_t v = 0; v < history.num_variables(); ++v) {
    const std::vector<double> f =
        ForecastChannel(models_[v], history.Column(v), horizon);
    for (std::size_t h = 0; h < horizon; ++h) values(h, v) = f[h];
  }
  return ts::TimeSeries(std::move(values));
}


base::Status KalmanForecaster::SaveFitted(base::BlobWriter* blob) const {
  blob->PutU8(1);
  blob->PutU64(models_.size());
  for (const ChannelModel& m : models_) {
    blob->PutDouble(m.q_level);
    blob->PutDouble(m.q_slope);
    blob->PutDouble(m.q_seasonal);
    blob->PutDouble(m.r_obs);
    blob->PutU64(m.period);
    blob->PutI64(m.harmonics);
  }
  return base::Status::Ok();
}

base::Status KalmanForecaster::LoadFitted(base::BlobReader* blob) {
  TFB_RETURN_IF_ERROR(detail::CheckVersion(blob, 1, "KalmanFilter"));
  std::uint64_t count = 0;
  TFB_RETURN_IF_ERROR(blob->ReadU64(&count));
  std::vector<ChannelModel> models(static_cast<std::size_t>(count));
  for (ChannelModel& m : models) {
    TFB_RETURN_IF_ERROR(blob->ReadDouble(&m.q_level));
    TFB_RETURN_IF_ERROR(blob->ReadDouble(&m.q_slope));
    TFB_RETURN_IF_ERROR(blob->ReadDouble(&m.q_seasonal));
    TFB_RETURN_IF_ERROR(blob->ReadDouble(&m.r_obs));
    std::uint64_t period = 0;
    TFB_RETURN_IF_ERROR(blob->ReadU64(&period));
    m.period = static_cast<std::size_t>(period);
    std::int64_t harmonics = 0;
    TFB_RETURN_IF_ERROR(blob->ReadI64(&harmonics));
    m.harmonics = static_cast<int>(harmonics);
  }
  models_ = std::move(models);
  return base::Status::Ok();
}

}  // namespace tfb::methods
