#include "tfb/serve/model_store.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "tfb/base/blob.h"
#include "tfb/base/crc32.h"

namespace tfb::serve {

namespace {

constexpr char kMagic[4] = {'T', 'F', 'B', 'M'};
constexpr std::uint32_t kFormatVersion = 1;

// A fitted model bigger than this is a corrupt length field, not a model.
constexpr std::size_t kMaxModelBytes = std::size_t{256} << 20;

}  // namespace

base::Status SerializeModel(const methods::Forecaster& forecaster,
                            const std::string& method,
                            const pipeline::MethodParams& params,
                            std::string* bytes) {
  base::BlobWriter payload;
  payload.PutString(method);
  payload.PutU64(params.horizon);
  payload.PutU64(params.lookback);
  payload.PutU64(params.period);
  payload.PutU64(params.seed);
  payload.PutI64(params.train_epochs);
  TFB_RETURN_IF_ERROR(forecaster.SaveFitted(&payload));

  const std::string body = payload.TakeBytes();
  base::BlobWriter envelope;
  for (const char c : kMagic) envelope.PutU8(static_cast<std::uint8_t>(c));
  envelope.PutU32(kFormatVersion);
  envelope.PutU32(base::Crc32(body.data(), body.size()));
  *bytes = envelope.TakeBytes();
  *bytes += body;
  return base::Status::Ok();
}

base::Status DeserializeModel(const std::string& bytes, ModelArtifact* out) {
  if (bytes.size() > kMaxModelBytes) {
    return base::Status::InvalidInput("model blob implausibly large (" +
                                      std::to_string(bytes.size()) +
                                      " bytes)");
  }
  if (bytes.size() < 12 ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return base::Status::InvalidInput(
        "not a TFBM model file (bad magic or truncated header)");
  }
  base::BlobReader header(bytes);
  std::uint8_t skip = 0;
  for (int i = 0; i < 4; ++i) {
    TFB_RETURN_IF_ERROR(header.ReadU8(&skip));
  }
  std::uint32_t version = 0;
  std::uint32_t crc = 0;
  TFB_RETURN_IF_ERROR(header.ReadU32(&version));
  TFB_RETURN_IF_ERROR(header.ReadU32(&crc));
  if (version != kFormatVersion) {
    return base::Status::InvalidInput(
        "unsupported model format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kFormatVersion) + ")");
  }
  const std::string body = bytes.substr(header.position());
  const std::uint32_t actual = base::Crc32(body.data(), body.size());
  if (actual != crc) {
    return base::Status::InvalidInput(
        "model payload CRC mismatch (stored " + std::to_string(crc) +
        ", computed " + std::to_string(actual) + "): file is corrupt");
  }

  base::BlobReader payload(body);
  ModelArtifact artifact;
  TFB_RETURN_IF_ERROR(payload.ReadString(&artifact.method));
  std::uint64_t horizon = 0;
  std::uint64_t lookback = 0;
  std::uint64_t period = 0;
  std::uint64_t seed = 0;
  std::int64_t train_epochs = 0;
  TFB_RETURN_IF_ERROR(payload.ReadU64(&horizon));
  TFB_RETURN_IF_ERROR(payload.ReadU64(&lookback));
  TFB_RETURN_IF_ERROR(payload.ReadU64(&period));
  TFB_RETURN_IF_ERROR(payload.ReadU64(&seed));
  TFB_RETURN_IF_ERROR(payload.ReadI64(&train_epochs));
  artifact.params.horizon = static_cast<std::size_t>(horizon);
  artifact.params.lookback = static_cast<std::size_t>(lookback);
  artifact.params.period = static_cast<std::size_t>(period);
  artifact.params.seed = seed;
  artifact.params.train_epochs = static_cast<int>(train_epochs);

  // Rebuild through the registry with the recorded parameters — the same
  // construction path the trainer used — then restore the fitted state.
  auto config = pipeline::MakeMethod(artifact.method, artifact.params);
  if (!config.has_value()) {
    return base::Status::InvalidInput("model file names unknown method \"" +
                                      artifact.method + "\"");
  }
  artifact.forecaster = config->factory();
  TFB_RETURN_IF_ERROR(artifact.forecaster->LoadFitted(&payload));
  if (!payload.exhausted()) {
    return base::Status::InvalidInput(
        "model payload has " + std::to_string(payload.remaining()) +
        " trailing bytes after the fitted state: file is corrupt");
  }
  *out = std::move(artifact);
  return base::Status::Ok();
}

base::Status SaveModelFile(const methods::Forecaster& forecaster,
                           const std::string& method,
                           const pipeline::MethodParams& params,
                           const std::string& path) {
  std::string bytes;
  TFB_RETURN_IF_ERROR(SerializeModel(forecaster, method, params, &bytes));
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return base::Status::Internal("cannot open " + tmp + " for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      return base::Status::Internal("short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return base::Status::Internal("rename " + tmp + " -> " + path +
                                  " failed");
  }
  return base::Status::Ok();
}

base::Status LoadModelFile(const std::string& path, ModelArtifact* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return base::Status::InvalidInput("cannot open model file " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return base::Status::Internal("read error on model file " + path);
  }
  base::Status status = DeserializeModel(bytes, out);
  if (!status.ok()) {
    return base::Status(status.code(), path + ": " + status.message());
  }
  return status;
}

}  // namespace tfb::serve
