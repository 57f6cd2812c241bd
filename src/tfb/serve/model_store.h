#ifndef TFB_SERVE_MODEL_STORE_H_
#define TFB_SERVE_MODEL_STORE_H_

#include <memory>
#include <string>

#include "tfb/base/status.h"
#include "tfb/methods/forecaster.h"
#include "tfb/pipeline/method_registry.h"

/// \file
/// Fitted-model persistence (the "Serving plane" section of DESIGN.md):
/// the framed on-disk format a trained forecaster is shipped in, and the
/// load path that reconstructs a byte-identical forecaster from it.
///
/// Wire layout ("TFBM" envelope):
///
///   bytes 0-3   magic "TFBM"
///   u32         format version (currently 1)
///   u32         CRC32 (base::Crc32) of the payload
///   payload     BlobWriter stream: method name, MethodParams, fitted blob
///
/// The payload carries the construction parameters alongside the fitted
/// state, so LoadModel can rebuild the forecaster through the method
/// registry exactly as the trainer built it and then restore the fitted
/// state into it — the contract behind the byte-exact
/// save -> load -> Forecast round trip (serve_model_io_test). Every
/// corruption mode — wrong magic, bad version, flipped payload bit,
/// truncation at any offset — resolves to a clean INVALID_INPUT Status.

namespace tfb::serve {

/// A fitted model plus everything needed to rebuild it.
struct ModelArtifact {
  std::string method;  ///< Registered method name ("ARIMA", "DLinear", ...).
  pipeline::MethodParams params;
  std::unique_ptr<methods::Forecaster> forecaster;  ///< Fitted, ready.
};

/// Serializes the fitted `forecaster` (a registry method `method` built
/// with `params`) into the TFBM envelope.
base::Status SerializeModel(const methods::Forecaster& forecaster,
                            const std::string& method,
                            const pipeline::MethodParams& params,
                            std::string* bytes);

/// Parses a TFBM envelope and reconstructs the fitted forecaster.
base::Status DeserializeModel(const std::string& bytes, ModelArtifact* out);

/// SerializeModel straight to `path` (atomic: temp file + rename).
base::Status SaveModelFile(const methods::Forecaster& forecaster,
                           const std::string& method,
                           const pipeline::MethodParams& params,
                           const std::string& path);

/// Reads `path` and DeserializeModel's it.
base::Status LoadModelFile(const std::string& path, ModelArtifact* out);

}  // namespace tfb::serve

#endif  // TFB_SERVE_MODEL_STORE_H_
