#include "tfb/pipeline/wire.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "tfb/base/blob.h"
#include "tfb/eval/metrics.h"
#include "tfb/ts/scaler.h"
#include "tfb/ts/time_series.h"

namespace tfb::pipeline {
namespace {

constexpr std::uint64_t kTaskBlobVersion = 1;
constexpr std::uint64_t kOptionsBlobVersion = 2;  // v2: + telemetry flag.

// A series buffer inside a frame can never legitimately exceed the frame
// payload cap; reject earlier so a corrupt shape cannot drive a huge
// allocation. (Strings need no cap: BlobReader rejects any length beyond
// the bytes that remain.)
constexpr std::size_t kMaxSeriesBytes = std::size_t{64} << 20;

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// The Deserialize* entry points report only success, so the decoders'
// error messages stay terse.
base::Status Corrupt(const char* what) {
  return base::Status::InvalidInput(std::string("corrupt blob: ") + what);
}

base::Status ReadSize(base::BlobReader* r, std::size_t* v) {
  std::uint64_t u = 0;
  TFB_RETURN_IF_ERROR(r->ReadU64(&u));
  *v = static_cast<std::size_t>(u);
  return base::Status::Ok();
}

base::Status ReadFlag(base::BlobReader* r, bool* v) {
  std::uint8_t b = 0;
  TFB_RETURN_IF_ERROR(r->ReadU8(&b));
  if (b > 1) return Corrupt("flag byte");
  *v = b != 0;
  return base::Status::Ok();
}

/// Reads a u8-coded enum whose values run from 0 to `last`.
template <typename Enum>
base::Status ReadEnum(base::BlobReader* r, Enum last, Enum* v) {
  std::uint8_t b = 0;
  TFB_RETURN_IF_ERROR(r->ReadU8(&b));
  if (b > static_cast<std::uint8_t>(last)) return Corrupt("enum value");
  *v = static_cast<Enum>(b);
  return base::Status::Ok();
}

base::Status ReadVersion(base::BlobReader* r, std::uint64_t expected) {
  std::uint64_t version = 0;
  TFB_RETURN_IF_ERROR(r->ReadU64(&version));
  if (version != expected) return Corrupt("version");
  return base::Status::Ok();
}

base::Status ReadTask(base::BlobReader* r, BenchmarkTask* out) {
  TFB_RETURN_IF_ERROR(ReadVersion(r, kTaskBlobVersion));
  TFB_RETURN_IF_ERROR(r->ReadString(&out->dataset));
  TFB_RETURN_IF_ERROR(r->ReadString(&out->method));
  TFB_RETURN_IF_ERROR(ReadSize(r, &out->horizon));
  // Series.
  std::string series_name;
  ts::Frequency frequency{};
  ts::Domain domain{};
  std::size_t seasonal_period = 0;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  TFB_RETURN_IF_ERROR(r->ReadString(&series_name));
  TFB_RETURN_IF_ERROR(ReadEnum(r, ts::Frequency::kOther, &frequency));
  TFB_RETURN_IF_ERROR(ReadEnum(r, ts::Domain::kWeb, &domain));
  TFB_RETURN_IF_ERROR(ReadSize(r, &seasonal_period));
  TFB_RETURN_IF_ERROR(r->ReadU64(&rows));
  TFB_RETURN_IF_ERROR(r->ReadU64(&cols));
  if (rows > (std::uint64_t{1} << 32) || cols > (std::uint64_t{1} << 32) ||
      (cols != 0 && rows > kMaxSeriesBytes / sizeof(double) / cols)) {
    return Corrupt("series shape");
  }
  std::vector<double> data(static_cast<std::size_t>(rows * cols));
  for (double& d : data) TFB_RETURN_IF_ERROR(r->ReadDouble(&d));
  ts::TimeSeries series(linalg::Matrix::FromRowMajor(
      static_cast<std::size_t>(rows), static_cast<std::size_t>(cols),
      std::move(data)));
  series.set_name(series_name);
  series.set_frequency(frequency);
  series.set_domain(domain);
  series.set_seasonal_period(seasonal_period);
  out->series = std::move(series);
  // MethodParams.
  std::int64_t train_epochs = 0;
  TFB_RETURN_IF_ERROR(ReadSize(r, &out->params.horizon));
  TFB_RETURN_IF_ERROR(ReadSize(r, &out->params.lookback));
  TFB_RETURN_IF_ERROR(ReadSize(r, &out->params.period));
  TFB_RETURN_IF_ERROR(r->ReadU64(&out->params.seed));
  TFB_RETURN_IF_ERROR(r->ReadI64(&train_epochs));
  out->params.train_epochs = static_cast<int>(train_epochs);
  // RollingOptions.
  std::uint64_t num_metrics = 0;
  TFB_RETURN_IF_ERROR(r->ReadU64(&num_metrics));
  if (num_metrics > 64) return Corrupt("metric count");
  out->rolling.metrics.resize(static_cast<std::size_t>(num_metrics));
  for (eval::Metric& m : out->rolling.metrics) {
    TFB_RETURN_IF_ERROR(ReadEnum(r, eval::Metric::kMase, &m));
  }
  TFB_RETURN_IF_ERROR(ReadSize(r, &out->rolling.stride));
  TFB_RETURN_IF_ERROR(r->ReadDouble(&out->rolling.split.train));
  TFB_RETURN_IF_ERROR(r->ReadDouble(&out->rolling.split.val));
  TFB_RETURN_IF_ERROR(r->ReadDouble(&out->rolling.split.test));
  TFB_RETURN_IF_ERROR(ReadEnum(r, ts::ScalerKind::kMinMax,
                               &out->rolling.scaler));
  TFB_RETURN_IF_ERROR(ReadSize(r, &out->rolling.max_windows));
  TFB_RETURN_IF_ERROR(ReadSize(r, &out->rolling.batch_size));
  TFB_RETURN_IF_ERROR(ReadFlag(r, &out->rolling.drop_last));
  TFB_RETURN_IF_ERROR(ReadSize(r, &out->rolling.seasonality));
  // Hyper search.
  TFB_RETURN_IF_ERROR(ReadFlag(r, &out->hyper_search));
  TFB_RETURN_IF_ERROR(ReadSize(r, &out->max_hyper_sets));
  if (!r->exhausted()) return Corrupt("trailing bytes");
  return base::Status::Ok();
}

base::Status ReadWorkerOptions(base::BlobReader* r, RunnerOptions* out,
                               bool* telemetry) {
  TFB_RETURN_IF_ERROR(ReadVersion(r, kOptionsBlobVersion));
  TFB_RETURN_IF_ERROR(ReadSize(r, &out->num_threads));
  TFB_RETURN_IF_ERROR(ReadSize(r, &out->hyper_val_windows));
  TFB_RETURN_IF_ERROR(r->ReadDouble(&out->deadline_seconds));
  TFB_RETURN_IF_ERROR(ReadSize(r, &out->max_retries));
  TFB_RETURN_IF_ERROR(r->ReadDouble(&out->retry_backoff_ms));
  TFB_RETURN_IF_ERROR(r->ReadDouble(&out->retry_backoff_max_ms));
  TFB_RETURN_IF_ERROR(r->ReadString(&out->fallback_method));
  TFB_RETURN_IF_ERROR(ReadEnum(r, Isolation::kProcess, &out->isolation));
  TFB_RETURN_IF_ERROR(ReadSize(r, &out->memory_limit_mb));
  TFB_RETURN_IF_ERROR(r->ReadDouble(&out->cpu_limit_seconds));
  TFB_RETURN_IF_ERROR(ReadFlag(r, telemetry));
  if (!r->exhausted()) return Corrupt("trailing bytes");
  return base::Status::Ok();
}

}  // namespace

std::optional<std::vector<std::size_t>> ParseSizeFields(
    std::string_view text, std::size_t min_fields, std::size_t max_fields) {
  std::vector<std::size_t> out;
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    if (text[i] == ' ') {
      ++i;
      continue;
    }
    if (!IsDigit(text[i])) return std::nullopt;
    unsigned long long v = 0;
    while (i < n && IsDigit(text[i])) {
      const unsigned digit = static_cast<unsigned>(text[i] - '0');
      if (v > (std::numeric_limits<unsigned long long>::max() - digit) / 10) {
        return std::nullopt;  // Overflow is corruption, not a clamp.
      }
      v = v * 10 + digit;
      ++i;
    }
    if (i < n && text[i] != ' ') return std::nullopt;  // Trailing garbage.
    if (v > std::numeric_limits<std::size_t>::max()) return std::nullopt;
    out.push_back(static_cast<std::size_t>(v));
  }
  if (out.size() < min_fields || out.size() > max_fields) return std::nullopt;
  return out;
}

std::optional<double> ParseStrictDouble(std::string_view text) {
  if (text.empty()) return std::nullopt;
  const std::string buf(text);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

// ---------------------------------------------------------------------------
// Task marshalling.

bool TaskIsMarshallable(const BenchmarkTask& task) {
  return task.custom_candidates.empty();
}

std::string SerializeTask(const BenchmarkTask& task) {
  if (!TaskIsMarshallable(task)) return std::string();
  base::BlobWriter w;
  w.PutU64(kTaskBlobVersion);
  w.PutString(task.dataset);
  w.PutString(task.method);
  w.PutU64(task.horizon);
  // Series: metadata + row-major doubles (bit-exact).
  const ts::TimeSeries& series = task.series;
  w.PutString(series.name());
  w.PutU8(static_cast<std::uint8_t>(series.frequency()));
  w.PutU8(static_cast<std::uint8_t>(series.domain()));
  w.PutU64(series.seasonal_period());
  const linalg::Matrix& values = series.values();
  w.PutU64(values.rows());
  w.PutU64(values.cols());
  for (std::size_t i = 0; i < values.size(); ++i) {
    w.PutDouble(values.data()[i]);
  }
  // MethodParams.
  w.PutU64(task.params.horizon);
  w.PutU64(task.params.lookback);
  w.PutU64(task.params.period);
  w.PutU64(task.params.seed);
  w.PutI64(task.params.train_epochs);
  // RollingOptions.
  w.PutU64(task.rolling.metrics.size());
  for (const eval::Metric m : task.rolling.metrics) {
    w.PutU8(static_cast<std::uint8_t>(m));
  }
  w.PutU64(task.rolling.stride);
  w.PutDouble(task.rolling.split.train);
  w.PutDouble(task.rolling.split.val);
  w.PutDouble(task.rolling.split.test);
  w.PutU8(static_cast<std::uint8_t>(task.rolling.scaler));
  w.PutU64(task.rolling.max_windows);
  w.PutU64(task.rolling.batch_size);
  w.PutU8(task.rolling.drop_last ? 1 : 0);
  w.PutU64(task.rolling.seasonality);
  // Hyper search.
  w.PutU8(task.hyper_search ? 1 : 0);
  w.PutU64(task.max_hyper_sets);
  return w.TakeBytes();
}

bool DeserializeTask(std::string_view payload, BenchmarkTask* task) {
  base::BlobReader r(payload);
  BenchmarkTask out;
  if (!ReadTask(&r, &out).ok()) return false;
  *task = std::move(out);
  return true;
}

// ---------------------------------------------------------------------------
// Runner-options marshalling (WELCOME frame).

std::string SerializeWorkerOptions(const RunnerOptions& options,
                                   bool telemetry) {
  base::BlobWriter w;
  w.PutU64(kOptionsBlobVersion);
  w.PutU64(options.num_threads);
  w.PutU64(options.hyper_val_windows);
  w.PutDouble(options.deadline_seconds);
  w.PutU64(options.max_retries);
  w.PutDouble(options.retry_backoff_ms);
  w.PutDouble(options.retry_backoff_max_ms);
  w.PutString(options.fallback_method);
  w.PutU8(static_cast<std::uint8_t>(options.isolation));
  w.PutU64(options.memory_limit_mb);
  w.PutDouble(options.cpu_limit_seconds);
  w.PutU8(telemetry ? 1 : 0);
  return w.TakeBytes();
}

bool DeserializeWorkerOptions(std::string_view payload, RunnerOptions* options,
                              bool* telemetry) {
  base::BlobReader r(payload);
  RunnerOptions out;
  bool wants_telemetry = false;
  if (!ReadWorkerOptions(&r, &out, &wants_telemetry).ok()) return false;
  if (telemetry != nullptr) *telemetry = wants_telemetry;
  // Worker-forced defaults: rows go back in ROW frames, not local journals.
  out.journal_path.clear();
  out.journal_fsync = false;
  out.resume = false;
  out.verbose = false;
  out.progress = obs::ProgressMode::kOff;
  *options = std::move(out);
  return true;
}

}  // namespace tfb::pipeline
