#ifndef TFB_PIPELINE_METHOD_REGISTRY_H_
#define TFB_PIPELINE_METHOD_REGISTRY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tfb/methods/forecaster.h"

namespace tfb::pipeline {

/// Method paradigm taxonomy (Section 4.2).
enum class Paradigm {
  kStatistical,
  kMachineLearning,
  kDeepLearning,
};

/// Architectural family of a deep method (Figures 9/11 group by family).
enum class Family {
  kStatistical,
  kMl,
  kLinear,
  kMlp,
  kRnn,
  kCnn,
  kTransformer,
  kFrequency,
};

/// Knobs every method construction accepts; maps 1:1 to the per-run
/// configuration file of the reference pipeline.
struct MethodParams {
  std::size_t horizon = 8;
  std::size_t lookback = 0;   ///< 0 = method default.
  std::size_t period = 0;     ///< Seasonal hint; 0 = series default.
  std::uint64_t seed = 7;
  int train_epochs = 0;       ///< 0 = method default (DL only).
};

/// All registered method names, in report order.
const std::vector<std::string>& AllMethodNames();

/// Names of methods in one paradigm.
std::vector<std::string> MethodNamesByParadigm(Paradigm p);

/// Paradigm of a registered method; nullopt when unknown.
std::optional<Paradigm> MethodParadigm(const std::string& name);

/// Family of a registered method; nullopt when unknown.
std::optional<Family> MethodFamily(const std::string& name);

/// Builds a configured method; nullopt when `name` is unknown. The returned
/// config's factory creates a fresh forecaster per call (required by the
/// rolling evaluator and the hyper-parameter search).
std::optional<methods::MethodConfig> MakeMethod(const std::string& name,
                                                const MethodParams& params);

/// The hyper-parameter search space of a method: up to `max_sets` (the
/// paper caps at 8) distinct candidate configurations. The first entry is
/// the default configuration. ML and DL methods add look-back windows
/// (and DL methods seeds); statistical methods read no look-back, so their
/// space is the default alone and the runner skips selection for them.
std::vector<methods::MethodConfig> HyperSearchSpace(
    const std::string& name, const MethodParams& params,
    std::size_t max_sets = 8);

}  // namespace tfb::pipeline

#endif  // TFB_PIPELINE_METHOD_REGISTRY_H_
