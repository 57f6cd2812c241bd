#include "fault_injection.h"

#include <chrono>
#include <csignal>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <unistd.h>

#include "tfb/linalg/matrix.h"
#include "tfb/methods/naive.h"

namespace tfb::methods {

namespace {

const char* FaultLabel(FaultSpec::Kind kind) {
  switch (kind) {
    case FaultSpec::Kind::kNone: return "none";
    case FaultSpec::Kind::kNaN: return "nan";
    case FaultSpec::Kind::kWrongShape: return "wrong-shape";
    case FaultSpec::Kind::kEmptyForecast: return "empty";
    case FaultSpec::Kind::kSlowFit: return "slow-fit";
    case FaultSpec::Kind::kHangFit: return "hang-fit";
    case FaultSpec::Kind::kCrash: return "crash";
    case FaultSpec::Kind::kOom: return "oom";
    case FaultSpec::Kind::kExitNonzero: return "exit-nonzero";
    case FaultSpec::Kind::kHangThenCrash: return "hang-then-crash";
  }
  return "?";
}

/// Dies by SIGSEGV with the *default* disposition, so the process is
/// terminated by the signal even under sanitizer runtimes that install
/// their own SIGSEGV handler — the sandbox supervisor must observe a real
/// signal death, not a handled report.
[[noreturn]] void RaiseSegv() {
  std::signal(SIGSEGV, SIG_DFL);
  std::raise(SIGSEGV);
  // raise() of a default-disposition SIGSEGV does not return; satisfy the
  // compiler if the impossible happens.
  std::abort();
}

/// Allocates (and touches) memory until either the surrounding resource
/// limit kills the allocation path or `cap_bytes` is reached. Returns
/// normally only in the capped case.
void AllocateUntilLimit(std::size_t cap_bytes) {
  constexpr std::size_t kChunk = std::size_t{16} << 20;  // 16 MiB
  std::vector<std::unique_ptr<char[]>> hoard;
  std::size_t held = 0;
  while (held + kChunk <= cap_bytes) {
    auto chunk = std::make_unique<char[]>(kChunk);
    // Touch every page so the pressure is physical, not just virtual.
    std::memset(chunk.get(), 0x5a, kChunk);
    hoard.push_back(std::move(chunk));
    held += kChunk;
  }
}

}  // namespace

FaultInjectingForecaster::FaultInjectingForecaster(
    FaultSpec spec, std::unique_ptr<Forecaster> inner)
    : spec_(spec), inner_(std::move(inner)) {
  if (inner_ == nullptr) inner_ = std::make_unique<SeasonalNaiveForecaster>();
}

std::string FaultInjectingForecaster::name() const {
  return "Faulty(" + std::string(FaultLabel(spec_.kind)) + ")";
}

bool FaultInjectingForecaster::RefitPerWindow() const {
  return inner_->RefitPerWindow();
}

std::size_t FaultInjectingForecaster::lookback() const {
  return inner_->lookback();
}

void FaultInjectingForecaster::Fit(const ts::TimeSeries& train) {
  if (spec_.kind == FaultSpec::Kind::kCrash) {
    RaiseSegv();
  } else if (spec_.kind == FaultSpec::Kind::kOom) {
    AllocateUntilLimit(spec_.oom_cap_bytes);
  } else if (spec_.kind == FaultSpec::Kind::kExitNonzero) {
    _exit(spec_.exit_code);
  } else if (spec_.kind == FaultSpec::Kind::kHangThenCrash) {
    // Outlive the heartbeat interval first (the coordinator must have seen
    // this worker alive and mid-task), then die without unwinding.
    if (spec_.sleep_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(spec_.sleep_ms));
    }
    _exit(spec_.exit_code);
  }
  if (spec_.kind == FaultSpec::Kind::kSlowFit && spec_.sleep_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(spec_.sleep_ms));
  } else if (spec_.kind == FaultSpec::Kind::kHangFit && !hang_done_ &&
             spec_.sleep_ms > 0.0) {
    // One long, uninterruptible stall: only the runner's hard watchdog can
    // recover from this (the cooperative deadline check never runs).
    hang_done_ = true;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(spec_.sleep_ms));
  }
  inner_->Fit(train);
}

ts::TimeSeries FaultInjectingForecaster::Forecast(
    const ts::TimeSeries& history, std::size_t horizon) {
  const std::size_t call = forecast_calls_++;
  ts::TimeSeries forecast = inner_->Forecast(history, horizon);
  if (call < spec_.healthy_forecasts) return forecast;
  switch (spec_.kind) {
    case FaultSpec::Kind::kNaN:
      for (std::size_t t = 0; t < forecast.length(); ++t) {
        for (std::size_t v = 0; v < forecast.num_variables(); ++v) {
          forecast.at(t, v) = std::numeric_limits<double>::quiet_NaN();
        }
      }
      return forecast;
    case FaultSpec::Kind::kWrongShape: {
      linalg::Matrix bad(horizon + 1, history.num_variables());
      for (std::size_t t = 0; t < bad.rows(); ++t) {
        for (std::size_t v = 0; v < bad.cols(); ++v) bad(t, v) = 0.0;
      }
      return ts::TimeSeries(std::move(bad));
    }
    case FaultSpec::Kind::kEmptyForecast:
      return ts::TimeSeries();
    case FaultSpec::Kind::kNone:
    case FaultSpec::Kind::kSlowFit:
    case FaultSpec::Kind::kHangFit:
    case FaultSpec::Kind::kCrash:
    case FaultSpec::Kind::kOom:
    case FaultSpec::Kind::kExitNonzero:
    case FaultSpec::Kind::kHangThenCrash:
      return forecast;
  }
  return forecast;
}

ForecasterFactory MakeFaultyFactory(FaultSpec spec) {
  return [spec] { return std::make_unique<FaultInjectingForecaster>(spec); };
}

}  // namespace tfb::methods
