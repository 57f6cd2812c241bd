#ifndef TFB_PIPELINE_WIRE_H_
#define TFB_PIPELINE_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tfb/pipeline/runner.h"

/// \file
/// Payload (de)serialization of the shard transport protocol (the framing
/// itself lives in transport.h). Two layers:
///
///  - Text headers: the small control payloads (HELLO, START, ROW, DONE,
///    GRANT, HEARTBEAT) are a single line of space-separated decimal fields,
///    parsed by the *strict* ParseSizeFields — overflow, trailing garbage or
///    wrong arity rejects the whole message, and a rejected message kills
///    the connection (never "best-effort" dispatch state).
///
///  - Binary blobs: tasks and runner options cross the wire explicitly for
///    TCP workers (which, unlike fork()ed workers, inherit nothing), in the
///    base::BlobWriter format: little-endian, length-prefixed and
///    bounds-checked; doubles travel as their IEEE-754 bit pattern so
///    marshalled tasks evaluate bit-identically to inherited ones (the
///    determinism invariant extends across hosts).

namespace tfb::pipeline {

/// Protocol version sent in HELLO; bumped on any incompatible change.
inline constexpr std::uint64_t kWireVersion = 1;

/// Strictly parses space-separated unsigned decimal fields: every token is
/// all digits, fits a size_t without overflow, and the field count lies in
/// [min_fields, max_fields]. Anything else — trailing garbage, a clamped
/// ULLONG_MAX, wrong arity — returns nullopt. Used for every protocol
/// header; a nullopt is a protocol violation and the connection dies.
std::optional<std::vector<std::size_t>> ParseSizeFields(
    std::string_view text, std::size_t min_fields,
    std::size_t max_fields = static_cast<std::size_t>(-1));

/// Strictly parses one finite double occupying the whole of `text`.
std::optional<double> ParseStrictDouble(std::string_view text);

/// True when the task can cross a process boundary by value. Tasks carrying
/// `custom_candidates` (in-memory forecaster factories) cannot be
/// marshalled; the coordinator pre-rejects them with an error row instead
/// of dispatching them to a TCP worker.
bool TaskIsMarshallable(const BenchmarkTask& task);

/// Serializes a marshallable task (series data included, doubles
/// bit-exact). Returns an empty string when !TaskIsMarshallable(task).
std::string SerializeTask(const BenchmarkTask& task);

/// Inverse of SerializeTask; false on any malformed or truncated input.
bool DeserializeTask(std::string_view payload, BenchmarkTask* task);

/// Serializes the subset of RunnerOptions a remote worker needs (execution
/// knobs only — journal/progress/verbosity are coordinator concerns and the
/// worker forces them off). `telemetry` tells the worker to turn on its own
/// obs collection (metrics + tracer) and ship deltas back piggybacked on
/// HEARTBEAT/DONE frames; it never affects task evaluation, so rows stay
/// byte-identical either way.
std::string SerializeWorkerOptions(const RunnerOptions& options,
                                   bool telemetry = false);

/// Inverse of SerializeWorkerOptions; false on malformed input. Leaves
/// journal_path empty, resume off, progress off on success. `*telemetry`
/// (when non-null) receives the coordinator's telemetry request.
bool DeserializeWorkerOptions(std::string_view payload, RunnerOptions* options,
                              bool* telemetry = nullptr);

}  // namespace tfb::pipeline

#endif  // TFB_PIPELINE_WIRE_H_
