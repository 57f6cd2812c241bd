#include "tfb/pipeline/config.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "tfb/datagen/registry.h"
#include "tfb/pipeline/transport.h"
#include "tfb/pipeline/wire.h"

namespace tfb::pipeline {

namespace {

std::string Trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> SplitList(const std::string& value) {
  std::vector<std::string> items;
  std::istringstream is(value);
  std::string item;
  while (std::getline(is, item, ',')) {
    item = Trim(item);
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

bool ParseBool(const std::string& value, bool* out) {
  if (value == "true" || value == "1" || value == "yes" || value == "on") {
    *out = true;
    return true;
  }
  if (value == "false" || value == "0" || value == "no" || value == "off") {
    *out = false;
    return true;
  }
  return false;
}

/// Applies one setting. Returns "" on success, else what is wrong with it.
/// The file's lines and the command line's flags both come through here.
std::string ApplyKey(const std::string& key, const std::string& value,
                     BenchmarkConfig* config) {
  const std::string bad = "bad " + key + ": " + value;
  // Integers: digits only — no sign, no trailing text, no overflow.
  auto count = [&](std::size_t max) -> std::optional<std::size_t> {
    const auto fields = ParseSizeFields(value, 1, 1);
    if (!fields || (*fields)[0] > max) return std::nullopt;
    return (*fields)[0];
  };
  auto set_count = [&](std::size_t* field, std::size_t max = SIZE_MAX) {
    const auto v = count(max);
    if (!v) return bad;
    *field = *v;
    return std::string();
  };
  // Non-negative finite reals, with nothing after the number.
  auto set_real = [&](double* field) {
    const auto v = ParseStrictDouble(value);
    if (!v || *v < 0.0) return bad;
    *field = *v;
    return std::string();
  };
  auto set_bool = [&](bool* field) {
    return ParseBool(value, field) ? std::string() : bad;
  };
  if (key == "datasets") {
    config->datasets = SplitList(value);
  } else if (key == "methods") {
    config->methods = SplitList(value);
  } else if (key == "horizons") {
    std::vector<std::size_t> horizons;
    for (const std::string& h : SplitList(value)) {
      const auto fields = ParseSizeFields(h, 1, 1);
      if (!fields || (*fields)[0] == 0) return "bad horizon: " + h;
      horizons.push_back((*fields)[0]);
    }
    config->horizons = std::move(horizons);
  } else if (key == "metrics") {
    std::vector<eval::Metric> metrics;
    for (const std::string& m : SplitList(value)) {
      const auto metric = MetricFromName(m);
      if (!metric) return "unknown metric: " + m;
      metrics.push_back(*metric);
    }
    config->metrics = std::move(metrics);
  } else if (key == "strategy") {
    // Accepted for existing configs; BuildTasks only knows one protocol.
    if (value != "rolling") {
      return "strategy must be rolling: the pipeline runs the rolling "
             "strategy only";
    }
  } else if (key == "scaler") {
    if (value == "zscore") {
      config->scaler = ts::ScalerKind::kZScore;
    } else if (value == "minmax") {
      config->scaler = ts::ScalerKind::kMinMax;
    } else if (value == "none") {
      config->scaler = ts::ScalerKind::kNone;
    } else {
      return "unknown scaler: " + value;
    }
  } else if (key == "max_windows") {
    return set_count(&config->max_windows);
  } else if (key == "stride") {
    return set_count(&config->stride);
  } else if (key == "drop_last") {
    return set_bool(&config->drop_last);
  } else if (key == "hyper_search") {
    return set_bool(&config->hyper_search);
  } else if (key == "train_epochs") {
    const auto v = count(INT_MAX);
    if (!v) return bad;
    config->train_epochs = static_cast<int>(*v);
  } else if (key == "seed") {
    const auto v = count(SIZE_MAX);
    if (!v) return bad;
    config->seed = *v;
  } else if (key == "num_threads") {
    return set_count(&config->num_threads);
  } else if (key == "kernel") {
    if (value != "scalar" && value != "avx2" && value != "neon") {
      return "kernel must be scalar, avx2, or neon";
    }
    config->kernel = value;
  } else if (key == "max_length") {
    return set_count(&config->max_length);
  } else if (key == "max_dim") {
    return set_count(&config->max_dim);
  } else if (key == "deadline_seconds") {
    return set_real(&config->deadline_seconds);
  } else if (key == "max_retries") {
    return set_count(&config->max_retries);
  } else if (key == "retry_backoff_ms") {
    return set_real(&config->retry_backoff_ms);
  } else if (key == "retry_backoff_max_ms") {
    return set_real(&config->retry_backoff_max_ms);
  } else if (key == "workers") {
    const auto v = count(256);
    if (!v) return "bad workers (0 to 256): " + value;
    config->workers = *v;
  } else if (key == "shard_size") {
    return set_count(&config->shard_size);
  } else if (key == "transport") {
    if (value != "socketpair" && value != "tcp") {
      return "transport must be socketpair or tcp";
    }
    config->transport = value;
  } else if (key == "listen") {
    const std::size_t colon = value.find_last_of(':');
    const std::string host = value.substr(0, colon);
    if (host.empty()) return "bad listen endpoint: " + value;
    std::size_t port = 0;
    if (colon != std::string::npos) {
      const auto fields = ParseSizeFields(value.substr(colon + 1), 1, 1);
      if (!fields || (*fields)[0] > 65535) {
        return "bad listen port: " + value.substr(colon + 1);
      }
      port = (*fields)[0];
    }
    config->listen_host = host;
    config->listen_port = port;
  } else if (key == "external_workers") {
    return set_bool(&config->external_workers);
  } else if (key == "chaos_net") {
    std::string chaos_error;
    if (!ParseFaultPlan(value, &chaos_error)) {
      return "bad chaos_net: " + chaos_error;
    }
    config->chaos_net = value;
  } else if (key == "fallback") {
    config->fallback = value;
  } else if (key == "journal") {
    config->journal = value;
  } else if (key == "journal_fsync") {
    return set_bool(&config->journal_fsync);
  } else if (key == "isolation") {
    if (value == "process") {
      config->isolation = Isolation::kProcess;
    } else if (value == "in_process") {
      config->isolation = Isolation::kInProcess;
    } else {
      return "isolation must be in_process or process";
    }
  } else if (key == "trace_out") {
    config->trace_out = value;
  } else if (key == "metrics_out") {
    config->metrics_out = value;
  } else if (key == "log_level") {
    const auto level = obs::ParseLogLevel(value);
    if (!level) return "unknown log_level: " + value;
    config->log_level = *level;
  } else if (key == "log_json") {
    config->log_json = value;
  } else if (key == "progress") {
    const auto mode = obs::ParseProgressMode(value);
    if (!mode) return "progress must be auto, bar, plain, or off";
    config->progress = *mode;
  } else if (key == "serve") {
    return set_count(&config->serve_port, 65535);
  } else if (key == "memory_limit_mb") {
    return set_count(&config->memory_limit_mb);
  } else if (key == "cpu_limit_seconds") {
    return set_real(&config->cpu_limit_seconds);
  } else {
    return "unknown key: " + key;
  }
  return std::string();
}

}  // namespace

std::optional<eval::Metric> MetricFromName(const std::string& name) {
  for (eval::Metric m : eval::AllMetrics()) {
    if (eval::MetricName(m) == name) return m;
  }
  return std::nullopt;
}

std::optional<BenchmarkConfig> ParseConfig(
    const std::string& text, std::string* error,
    const std::vector<std::string>& flags) {
  BenchmarkConfig config;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  std::istringstream is(text);
  std::string line;
  for (int line_number = 1; std::getline(is, line); ++line_number) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(line_number) + ": ";
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return fail(where + "expected key = value");
    const std::string message = ApplyKey(Trim(line.substr(0, eq)),
                                         Trim(line.substr(eq + 1)), &config);
    if (!message.empty()) return fail(where + message);
  }
  // `--key=value` is the line `key = value`, `-` standing for `_`; a bare
  // `--key` means `key = true`.
  for (const std::string& flag : flags) {
    if (flag.rfind("--", 0) != 0) return fail(flag + ": expected --key=value");
    const std::size_t eq = flag.find('=');
    std::string key = flag.substr(2, eq == std::string::npos ? eq : eq - 2);
    std::replace(key.begin(), key.end(), '-', '_');
    const std::string value =
        eq == std::string::npos ? "true" : Trim(flag.substr(eq + 1));
    const std::string message = ApplyKey(key, value, &config);
    if (!message.empty()) return fail(flag + ": " + message);
  }
  // Method, dataset and fallback names are checked once, after the flags.
  for (const std::string& method : config.methods) {
    if (!MethodParadigm(method)) return fail("unknown method: " + method);
  }
  for (const std::string& dataset : config.datasets) {
    if (!datagen::FindProfile(dataset)) {
      return fail("unknown dataset: " + dataset);
    }
  }
  if (!config.fallback.empty() && !MethodParadigm(config.fallback)) {
    return fail("unknown fallback method: " + config.fallback);
  }
  return config;
}

std::optional<BenchmarkConfig> LoadConfigFile(
    const std::string& path, std::string* error,
    const std::vector<std::string>& flags) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return ParseConfig(buffer.str(), error, flags);
}

std::string ConfigToString(const BenchmarkConfig& config) {
  std::ostringstream os;
  auto join = [](const auto& items, auto&& to_string) {
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ", ";
      out += to_string(items[i]);
    }
    return out;
  };
  os << "datasets = "
     << join(config.datasets, [](const std::string& s) { return s; }) << '\n';
  os << "methods = "
     << join(config.methods, [](const std::string& s) { return s; }) << '\n';
  os << "horizons = "
     << join(config.horizons,
             [](std::size_t h) { return std::to_string(h); })
     << '\n';
  os << "metrics = "
     << join(config.metrics,
             [](eval::Metric m) { return eval::MetricName(m); })
     << '\n';
  os << "scaler = "
     << (config.scaler == ts::ScalerKind::kZScore
             ? "zscore"
             : config.scaler == ts::ScalerKind::kMinMax ? "minmax" : "none")
     << '\n';
  os << "max_windows = " << config.max_windows << '\n';
  os << "stride = " << config.stride << '\n';
  os << "drop_last = " << (config.drop_last ? "true" : "false") << '\n';
  os << "hyper_search = " << (config.hyper_search ? "true" : "false") << '\n';
  os << "train_epochs = " << config.train_epochs << '\n';
  os << "seed = " << config.seed << '\n';
  os << "num_threads = " << config.num_threads << '\n';
  if (!config.kernel.empty()) os << "kernel = " << config.kernel << '\n';
  os << "max_length = " << config.max_length << '\n';
  os << "max_dim = " << config.max_dim << '\n';
  os << "deadline_seconds = " << config.deadline_seconds << '\n';
  os << "max_retries = " << config.max_retries << '\n';
  os << "retry_backoff_ms = " << config.retry_backoff_ms << '\n';
  os << "retry_backoff_max_ms = " << config.retry_backoff_max_ms << '\n';
  if (config.workers != 0) os << "workers = " << config.workers << '\n';
  if (config.shard_size != 0) {
    os << "shard_size = " << config.shard_size << '\n';
  }
  if (config.transport != "socketpair") {
    os << "transport = " << config.transport << '\n';
  }
  if (config.listen_host != "127.0.0.1" || config.listen_port != 0) {
    os << "listen = " << config.listen_host << ':' << config.listen_port
       << '\n';
  }
  if (config.external_workers) os << "external_workers = true\n";
  if (!config.chaos_net.empty()) {
    os << "chaos_net = " << config.chaos_net << '\n';
  }
  if (!config.fallback.empty()) os << "fallback = " << config.fallback << '\n';
  if (!config.journal.empty()) os << "journal = " << config.journal << '\n';
  os << "journal_fsync = " << (config.journal_fsync ? "true" : "false")
     << '\n';
  os << "isolation = "
     << (config.isolation == Isolation::kProcess ? "process" : "in_process")
     << '\n';
  os << "memory_limit_mb = " << config.memory_limit_mb << '\n';
  os << "cpu_limit_seconds = " << config.cpu_limit_seconds << '\n';
  if (!config.trace_out.empty()) os << "trace_out = " << config.trace_out
                                    << '\n';
  if (!config.metrics_out.empty()) {
    os << "metrics_out = " << config.metrics_out << '\n';
  }
  // Lower-cased: ParseLogLevel is case-insensitive but the canonical
  // serialization should round-trip through ParseConfig verbatim.
  {
    std::string level = obs::LogLevelName(config.log_level);
    while (!level.empty() && level.back() == ' ') level.pop_back();
    for (char& c : level) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    os << "log_level = " << level << '\n';
  }
  if (!config.log_json.empty()) os << "log_json = " << config.log_json << '\n';
  os << "progress = " << obs::ProgressModeName(config.progress) << '\n';
  if (config.serve_port != 0) os << "serve = " << config.serve_port << '\n';
  return os.str();
}

RunnerOptions BenchmarkConfig::MakeRunnerOptions() const {
  RunnerOptions options;
  options.num_threads = num_threads;
  options.deadline_seconds = deadline_seconds;
  options.max_retries = max_retries;
  options.retry_backoff_ms = retry_backoff_ms;
  options.retry_backoff_max_ms = retry_backoff_max_ms;
  options.fallback_method = fallback;
  options.journal_path = journal;
  options.journal_fsync = journal_fsync;
  options.isolation = isolation;
  options.memory_limit_mb = memory_limit_mb;
  options.cpu_limit_seconds = cpu_limit_seconds;
  options.progress = progress;
  return options;
}

ShardOptions BenchmarkConfig::MakeShardOptions() const {
  ShardOptions options;
  options.num_workers = workers;
  options.shard_size = shard_size;
  if (transport == "tcp") {
    options.transport = ShardTransport::kTcp;
    options.spawn_workers = !external_workers;
  }
  options.listen_host = listen_host;
  options.listen_port = static_cast<std::uint16_t>(listen_port);
  // ParseConfig rejected any spec that does not parse.
  if (const auto plan = ParseFaultPlan(chaos_net, nullptr)) {
    options.chaos = *plan;
  }
  return options;
}

std::vector<BenchmarkTask> BuildTasks(const BenchmarkConfig& config) {
  std::vector<BenchmarkTask> tasks;
  for (const std::string& dataset : config.datasets) {
    auto profile = datagen::FindProfile(dataset);
    if (!profile) continue;
    profile->length = std::min(profile->length, config.max_length);
    profile->dim = std::min(profile->dim, config.max_dim);
    profile->spec.factor_spec.length = profile->length;
    profile->spec.num_variables = profile->dim;
    if (profile->spec.factor_spec.period * 6 > profile->length) {
      profile->spec.factor_spec.period =
          std::max<std::size_t>(4, profile->length / 12);
    }
    const ts::TimeSeries series =
        datagen::GenerateDataset(*profile, config.seed);
    for (const std::string& method : config.methods) {
      for (const std::size_t horizon : config.horizons) {
        BenchmarkTask task;
        task.dataset = dataset;
        task.series = series;
        task.method = method;
        task.horizon = horizon;
        task.params.seed = config.seed;
        task.params.train_epochs = config.train_epochs;
        task.hyper_search = config.hyper_search;
        task.rolling.split = profile->split;
        task.rolling.scaler = config.scaler;
        task.rolling.metrics = config.metrics;
        task.rolling.max_windows = config.max_windows;
        task.rolling.stride = config.stride;
        task.rolling.drop_last = config.drop_last;
        tasks.push_back(std::move(task));
      }
    }
  }
  return tasks;
}

}  // namespace tfb::pipeline
