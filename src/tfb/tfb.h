#ifndef TFB_TFB_H_
#define TFB_TFB_H_

/// \file
/// Umbrella header: the complete public API of tfb-cpp, a from-scratch C++
/// reproduction of "TFB: Towards Comprehensive and Fair Benchmarking of
/// Time Series Forecasting Methods" (PVLDB 2024).
///
/// Layer map (see DESIGN.md):
///  - data layer: tfb/ts, tfb/datagen
///  - characterization: tfb/characterization, tfb/stl
///  - method layer: tfb/methods (+ tfb/nn substrate)
///  - evaluation layer: tfb/eval
///  - pipeline & reporting: tfb/pipeline, tfb/report
///  - process sandbox: tfb/proc (crash/oom/timeout isolation)
///  - observability: tfb/obs (metrics, tracing, resource accounting, and
///    live telemetry: structured logging, progress/ETA, HTTP endpoint)

#include "tfb/base/check.h"
#include "tfb/base/json.h"
#include "tfb/base/status.h"
#include "tfb/characterization/adf.h"
#include "tfb/characterization/catch22.h"
#include "tfb/characterization/features.h"
#include "tfb/characterization/pca.h"
#include "tfb/datagen/generator.h"
#include "tfb/datagen/registry.h"
#include "tfb/eval/metrics.h"
#include "tfb/eval/strategy.h"
#include "tfb/methods/dl/dl_forecasters.h"
#include "tfb/methods/forecaster.h"
#include "tfb/methods/guarded_forecaster.h"
#include "tfb/methods/ml/gradient_boosting.h"
#include "tfb/methods/ml/linear_regression.h"
#include "tfb/methods/ml/random_forest.h"
#include "tfb/methods/naive.h"
#include "tfb/methods/statistical/arima.h"
#include "tfb/methods/statistical/ets.h"
#include "tfb/methods/statistical/kalman.h"
#include "tfb/methods/statistical/theta.h"
#include "tfb/methods/statistical/var.h"
#include "tfb/obs/http_exporter.h"
#include "tfb/obs/log.h"
#include "tfb/obs/metrics.h"
#include "tfb/obs/progress.h"
#include "tfb/obs/rusage.h"
#include "tfb/obs/trace.h"
#include "tfb/pipeline/config.h"
#include "tfb/pipeline/journal.h"
#include "tfb/pipeline/method_registry.h"
#include "tfb/pipeline/runner.h"
#include "tfb/proc/sandbox.h"
#include "tfb/report/ascii_plot.h"
#include "tfb/report/report.h"
#include "tfb/serve/json.h"
#include "tfb/serve/model_store.h"
#include "tfb/serve/registry.h"
#include "tfb/serve/service.h"
#include "tfb/stl/stl.h"
#include "tfb/ts/csv.h"
#include "tfb/ts/impute.h"
#include "tfb/ts/scaler.h"
#include "tfb/ts/split.h"
#include "tfb/ts/time_series.h"

#endif  // TFB_TFB_H_
