#ifndef TFB_TESTS_FAULT_INJECTION_H_
#define TFB_TESTS_FAULT_INJECTION_H_

#include <memory>
#include <string>

#include "tfb/methods/forecaster.h"

namespace tfb::methods {

/// What the injector does to an otherwise healthy forecaster. Used to
/// exercise the fault-isolation layer (GuardedForecaster, runner deadlines,
/// fallback, journal) deterministically in CI.
struct FaultSpec {
  enum class Kind {
    kNone,           ///< Behave exactly like the wrapped forecaster.
    kNaN,            ///< Replace every forecast value with quiet NaN.
    kWrongShape,     ///< Return horizon+1 rows instead of horizon.
    kEmptyForecast,  ///< Return a zero-length forecast.
    kSlowFit,        ///< Sleep `sleep_ms` inside every Fit call.
    kHangFit,        ///< Sleep `sleep_ms` once, inside the first Fit call.
    /// The process-killing faults below exercise the `tfb::proc` sandbox
    /// and the sharded executor's worker-death recovery; running them
    /// without `--isolate=process` (or outside a shard worker) takes the
    /// calling process down (which is exactly the point).
    kCrash,          ///< Raise SIGSEGV (default disposition) inside Fit.
    kOom,            ///< Allocate without bound inside Fit (see oom_cap).
    kExitNonzero,    ///< _exit(exit_code) inside Fit.
    /// Sleep `sleep_ms` inside Fit, then `_exit(exit_code)`: a worker that
    /// goes quiet *past the shard heartbeat interval* and only then dies.
    /// This is the deterministic test double for the sharded executor's
    /// worker-death paths (heartbeat loss, mid-shard re-dispatch, poison
    /// quarantine) — the delay guarantees the coordinator observed the
    /// worker alive and mid-task before the death.
    kHangThenCrash,
  };
  Kind kind = Kind::kNone;
  double sleep_ms = 0.0;       ///< Budget for kSlowFit / kHangFit.
  /// Number of initial Forecast calls that stay healthy before the fault
  /// fires (models late-onset failures mid-rolling-evaluation).
  std::size_t healthy_forecasts = 0;
  /// kOom safety cap: allocation stops (and the forecaster behaves like its
  /// inner method) once this many bytes are held without the memory limit
  /// kicking in — so a mis-configured run degrades instead of eating the
  /// host. Keep it above the sandbox memory limit under test.
  std::size_t oom_cap_bytes = std::size_t{1} << 30;
  int exit_code = 3;           ///< Exit status used by kExitNonzero.
};

/// Test double wrapping any inner forecaster (default: SeasonalNaive) and
/// injecting the configured fault. Deterministic: same spec, same behaviour.
class FaultInjectingForecaster : public Forecaster {
 public:
  explicit FaultInjectingForecaster(
      FaultSpec spec, std::unique_ptr<Forecaster> inner = nullptr);

  std::string name() const override;
  void Fit(const ts::TimeSeries& train) override;
  ts::TimeSeries Forecast(const ts::TimeSeries& history,
                          std::size_t horizon) override;
  bool RefitPerWindow() const override;
  std::size_t lookback() const override;

 private:
  FaultSpec spec_;
  std::unique_ptr<Forecaster> inner_;
  std::size_t forecast_calls_ = 0;
  bool hang_done_ = false;
};

/// Factory for use in BenchmarkTask::custom_candidates.
ForecasterFactory MakeFaultyFactory(FaultSpec spec);

}  // namespace tfb::methods

#endif  // TFB_TESTS_FAULT_INJECTION_H_
