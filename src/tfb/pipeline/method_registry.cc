#include "tfb/pipeline/method_registry.h"

#include <algorithm>

#include "tfb/methods/dl/dl_forecasters.h"
#include "tfb/methods/ml/gradient_boosting.h"
#include "tfb/methods/ml/linear_regression.h"
#include "tfb/methods/ml/random_forest.h"
#include "tfb/methods/naive.h"
#include "tfb/methods/statistical/arima.h"
#include "tfb/methods/statistical/ets.h"
#include "tfb/methods/statistical/kalman.h"
#include "tfb/methods/statistical/theta.h"
#include "tfb/methods/statistical/var.h"

namespace tfb::pipeline {

namespace {

struct Entry {
  const char* name;
  Paradigm paradigm;
  Family family;
};

const Entry kEntries[] = {
    {"Naive", Paradigm::kStatistical, Family::kStatistical},
    {"SeasonalNaive", Paradigm::kStatistical, Family::kStatistical},
    {"Drift", Paradigm::kStatistical, Family::kStatistical},
    {"Mean", Paradigm::kStatistical, Family::kStatistical},
    {"ARIMA", Paradigm::kStatistical, Family::kStatistical},
    {"ETS", Paradigm::kStatistical, Family::kStatistical},
    {"Theta", Paradigm::kStatistical, Family::kStatistical},
    {"KalmanFilter", Paradigm::kStatistical, Family::kStatistical},
    {"VAR", Paradigm::kStatistical, Family::kStatistical},
    {"LinearRegression", Paradigm::kMachineLearning, Family::kMl},
    {"RandomForest", Paradigm::kMachineLearning, Family::kMl},
    {"XGB", Paradigm::kMachineLearning, Family::kMl},
    {"NLinear", Paradigm::kDeepLearning, Family::kLinear},
    {"DLinear", Paradigm::kDeepLearning, Family::kLinear},
    {"MLP", Paradigm::kDeepLearning, Family::kMlp},
    {"N-BEATS", Paradigm::kDeepLearning, Family::kMlp},
    {"StationaryMLP", Paradigm::kDeepLearning, Family::kMlp},
    {"RNN", Paradigm::kDeepLearning, Family::kRnn},
    {"TCN", Paradigm::kDeepLearning, Family::kCnn},
    {"PatchAttention", Paradigm::kDeepLearning, Family::kTransformer},
    {"CrossAttention", Paradigm::kDeepLearning, Family::kTransformer},
    {"FrequencyLinear", Paradigm::kDeepLearning, Family::kFrequency},
    {"LegendreLinear", Paradigm::kDeepLearning, Family::kFrequency},
};

const Entry* FindEntry(const std::string& name) {
  for (const Entry& e : kEntries) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

methods::NeuralOptions NeuralFrom(const MethodParams& p) {
  methods::NeuralOptions o;
  o.horizon = p.horizon;
  o.lookback = p.lookback;
  o.seed = p.seed;
  if (p.train_epochs > 0) o.train.max_epochs = p.train_epochs;
  return o;
}

}  // namespace

const std::vector<std::string>& AllMethodNames() {
  static const std::vector<std::string>& names = *[] {
    auto* v = new std::vector<std::string>();
    for (const Entry& e : kEntries) v->push_back(e.name);
    return v;
  }();
  return names;
}

std::vector<std::string> MethodNamesByParadigm(Paradigm p) {
  std::vector<std::string> out;
  for (const Entry& e : kEntries) {
    if (e.paradigm == p) out.push_back(e.name);
  }
  return out;
}

std::optional<Paradigm> MethodParadigm(const std::string& name) {
  const Entry* e = FindEntry(name);
  if (e == nullptr) return std::nullopt;
  return e->paradigm;
}

std::optional<Family> MethodFamily(const std::string& name) {
  const Entry* e = FindEntry(name);
  if (e == nullptr) return std::nullopt;
  return e->family;
}

std::optional<methods::MethodConfig> MakeMethod(const std::string& name,
                                                const MethodParams& params) {
  using methods::MethodConfig;
  const MethodParams p = params;
  if (name == "Naive") {
    return MethodConfig{name, [] { return std::make_unique<methods::NaiveForecaster>(); }};
  }
  if (name == "SeasonalNaive") {
    return MethodConfig{name, [p] {
      return std::make_unique<methods::SeasonalNaiveForecaster>(p.period);
    }};
  }
  if (name == "Drift") {
    return MethodConfig{name, [] { return std::make_unique<methods::DriftForecaster>(); }};
  }
  if (name == "Mean") {
    return MethodConfig{name, [] { return std::make_unique<methods::MeanForecaster>(); }};
  }
  if (name == "ARIMA") {
    return MethodConfig{name, [] {
      return std::make_unique<methods::ArimaForecaster>();
    }};
  }
  if (name == "ETS") {
    return MethodConfig{name, [p] {
      methods::EtsOptions o;
      o.period = p.period;
      return std::make_unique<methods::EtsForecaster>(o);
    }};
  }
  if (name == "Theta") {
    return MethodConfig{name, [p] {
      return std::make_unique<methods::ThetaForecaster>(p.period);
    }};
  }
  if (name == "KalmanFilter") {
    return MethodConfig{name, [p] {
      methods::KalmanOptions o;
      o.period = p.period;
      return std::make_unique<methods::KalmanForecaster>(o);
    }};
  }
  if (name == "VAR") {
    return MethodConfig{name, [] {
      return std::make_unique<methods::VarForecaster>();
    }};
  }
  if (name == "LinearRegression") {
    return MethodConfig{name, [p] {
      methods::LinearRegressionOptions o;
      o.horizon = p.horizon;
      o.lookback = p.lookback;
      return std::make_unique<methods::LinearRegressionForecaster>(o);
    }};
  }
  if (name == "RandomForest") {
    return MethodConfig{name, [p] {
      methods::RandomForestOptions o;
      o.lookback = p.lookback;
      o.seed = p.seed;
      return std::make_unique<methods::RandomForestForecaster>(o);
    }};
  }
  if (name == "XGB") {
    return MethodConfig{name, [p] {
      methods::GradientBoostingOptions o;
      o.lookback = p.lookback;
      o.seed = p.seed;
      return std::make_unique<methods::GradientBoostingForecaster>(o);
    }};
  }
  if (name == "NLinear") {
    return MethodConfig{name, [p] {
      return std::make_unique<methods::NLinearForecaster>(NeuralFrom(p));
    }};
  }
  if (name == "DLinear") {
    return MethodConfig{name, [p] {
      return std::make_unique<methods::DLinearForecaster>(NeuralFrom(p));
    }};
  }
  if (name == "MLP") {
    return MethodConfig{name, [p] {
      return std::make_unique<methods::MlpForecaster>(NeuralFrom(p));
    }};
  }
  if (name == "N-BEATS") {
    return MethodConfig{name, [p] {
      return std::make_unique<methods::NBeatsForecaster>(NeuralFrom(p));
    }};
  }
  if (name == "StationaryMLP") {
    return MethodConfig{name, [p] {
      return std::make_unique<methods::StationaryMlpForecaster>(NeuralFrom(p));
    }};
  }
  if (name == "RNN") {
    return MethodConfig{name, [p] {
      return std::make_unique<methods::RnnForecaster>(NeuralFrom(p));
    }};
  }
  if (name == "TCN") {
    return MethodConfig{name, [p] {
      return std::make_unique<methods::TcnForecaster>(NeuralFrom(p));
    }};
  }
  if (name == "PatchAttention") {
    return MethodConfig{name, [p] {
      return std::make_unique<methods::PatchAttentionForecaster>(NeuralFrom(p));
    }};
  }
  if (name == "CrossAttention") {
    return MethodConfig{name, [p] {
      return std::make_unique<methods::CrossAttentionForecaster>(NeuralFrom(p));
    }};
  }
  if (name == "FrequencyLinear") {
    return MethodConfig{name, [p] {
      return std::make_unique<methods::FrequencyLinearForecaster>(NeuralFrom(p));
    }};
  }
  if (name == "LegendreLinear") {
    return MethodConfig{name, [p] {
      return std::make_unique<methods::LegendreLinearForecaster>(NeuralFrom(p));
    }};
  }
  return std::nullopt;
}

std::vector<methods::MethodConfig> HyperSearchSpace(const std::string& name,
                                                    const MethodParams& params,
                                                    std::size_t max_sets) {
  std::vector<methods::MethodConfig> configs;
  auto add = [&](const MethodParams& p, const std::string& tag) {
    if (configs.size() >= max_sets) return;
    auto config = MakeMethod(name, p);
    if (config) {
      config->name = name + tag;
      configs.push_back(std::move(*config));
    }
  };
  add(params, "");
  // Look-back variants are the dominant hyper-parameter in the paper's
  // protocol (Section 5.1.2: H in {36, 104} or {96, 336, 512}, scaled here
  // as multiples of the horizon). Statistical methods read no look-back,
  // so for them each variant would be the default model again.
  if (MethodParadigm(name) != Paradigm::kStatistical) {
    const std::size_t h = std::max<std::size_t>(params.horizon, 1);
    for (const std::size_t mult : {1, 2, 3, 4}) {
      MethodParams p = params;
      p.lookback = mult * h;
      add(p, "/L" + std::to_string(p.lookback));
    }
  }
  // Seed variants stand in for initialization-sensitive searches (DL only).
  if (MethodParadigm(name) == Paradigm::kDeepLearning) {
    for (const std::uint64_t seed : {11ULL, 23ULL, 37ULL}) {
      MethodParams p = params;
      p.seed = seed;
      add(p, "/s" + std::to_string(seed));
    }
  }
  return configs;
}

}  // namespace tfb::pipeline
