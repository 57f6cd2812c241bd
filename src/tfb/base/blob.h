#ifndef TFB_BASE_BLOB_H_
#define TFB_BASE_BLOB_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "tfb/base/status.h"

/// \file
/// The one binary codec of the tree: fitted models (TFBM files, the
/// "Serving plane" section of DESIGN.md) and the shard transport's task,
/// runner-options and telemetry payloads. Fixed little-endian layout, no
/// alignment padding, doubles carried as IEEE-754 bit patterns — a blob
/// written on one host decodes to bit-identical values on another, which
/// is what lets the serving plane promise byte-exact save -> load ->
/// Forecast round trips and a marshalled task evaluate exactly like an
/// inherited one. BlobReader is fully bounds-checked: every read on a
/// truncated or corrupted blob returns a clean INVALID_INPUT Status (with
/// the offending offset) instead of reading past the end.

namespace tfb::base {

/// Appends fixed-layout fields to a growing byte string.
class BlobWriter {
 public:
  void PutU8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void PutU32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  void PutU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  void PutI64(std::int64_t v) { PutU64(static_cast<std::uint64_t>(v)); }

  /// Bit-exact: the IEEE-754 pattern, not a decimal rendering.
  void PutDouble(double v) { PutU64(std::bit_cast<std::uint64_t>(v)); }

  /// Length-prefixed (u64) byte string.
  void PutString(const std::string& s) {
    PutU64(s.size());
    out_.append(s);
  }

  /// Length-prefixed (u64) array of doubles.
  void PutDoubleVector(const std::vector<double>& v) {
    PutU64(v.size());
    for (const double d : v) PutDouble(d);
  }

  const std::string& bytes() const { return out_; }
  std::string TakeBytes() { return std::move(out_); }

 private:
  std::string out_;
};

/// Sequential bounds-checked reader over a byte string it does not own (a
/// frame payload is read in place, without a copy). Every Read* returns a
/// Status; after the first failure the reader stays usable (the cursor
/// does not advance on failure) but callers normally bail via
/// TFB_RETURN_IF_ERROR.
class BlobReader {
 public:
  explicit BlobReader(std::string_view bytes) : bytes_(bytes) {}
  BlobReader(const BlobReader&) = delete;
  BlobReader& operator=(const BlobReader&) = delete;

  Status ReadU8(std::uint8_t* v) {
    TFB_RETURN_IF_ERROR(Need(1));
    *v = static_cast<std::uint8_t>(bytes_[pos_]);
    pos_ += 1;
    return Status::Ok();
  }

  Status ReadU32(std::uint32_t* v) {
    TFB_RETURN_IF_ERROR(Need(4));
    std::uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes_[pos_ + i]))
             << (8 * i);
    }
    *v = out;
    pos_ += 4;
    return Status::Ok();
  }

  Status ReadU64(std::uint64_t* v) {
    TFB_RETURN_IF_ERROR(Need(8));
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes_[pos_ + i]))
             << (8 * i);
    }
    *v = out;
    pos_ += 8;
    return Status::Ok();
  }

  Status ReadI64(std::int64_t* v) {
    std::uint64_t raw = 0;
    TFB_RETURN_IF_ERROR(ReadU64(&raw));
    *v = static_cast<std::int64_t>(raw);
    return Status::Ok();
  }

  Status ReadDouble(double* v) {
    std::uint64_t raw = 0;
    TFB_RETURN_IF_ERROR(ReadU64(&raw));
    *v = std::bit_cast<double>(raw);
    return Status::Ok();
  }

  Status ReadString(std::string* s) {
    std::uint64_t len = 0;
    TFB_RETURN_IF_ERROR(ReadU64(&len));
    if (len > remaining()) {
      return Status::InvalidInput("blob truncated: string of " +
                                  std::to_string(len) + " bytes at offset " +
                                  std::to_string(pos_) + " overruns blob of " +
                                  std::to_string(bytes_.size()));
    }
    s->assign(bytes_.substr(pos_, static_cast<std::size_t>(len)));
    pos_ += static_cast<std::size_t>(len);
    return Status::Ok();
  }

  Status ReadDoubleVector(std::vector<double>* v) {
    std::uint64_t len = 0;
    TFB_RETURN_IF_ERROR(ReadU64(&len));
    if (len > remaining() / 8) {
      return Status::InvalidInput(
          "blob truncated: double array of " + std::to_string(len) +
          " entries at offset " + std::to_string(pos_) +
          " overruns blob of " + std::to_string(bytes_.size()));
    }
    v->resize(static_cast<std::size_t>(len));
    for (double& d : *v) TFB_RETURN_IF_ERROR(ReadDouble(&d));
    return Status::Ok();
  }

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  Status Need(std::size_t n) {
    if (remaining() < n) {
      return Status::InvalidInput(
          "blob truncated: need " + std::to_string(n) + " bytes at offset " +
          std::to_string(pos_) + " of " + std::to_string(bytes_.size()));
    }
    return Status::Ok();
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace tfb::base

#endif  // TFB_BASE_BLOB_H_
