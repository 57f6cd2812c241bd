#ifndef TFB_BASE_JSON_H_
#define TFB_BASE_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tfb/base/status.h"

/// \file
/// The one JSON reader and writer of the tree. Every JSON the program
/// emits or reads goes through here: journal lines, JSONL logs, /status,
/// metric and trace dumps, and the serving plane's request and response
/// bodies.
///
/// The reader is a minimal value model plus a recursive-descent parser.
/// Full JSON: objects, arrays, strings with escapes, numbers, booleans,
/// null. Bounded recursion depth; every malformed input resolves to a clean
/// INVALID_INPUT Status with the failing byte offset.
///
/// Doubles are emitted with %.17g (AppendJsonDouble), which round-trips any
/// IEEE-754 double exactly: a resumed run reads back the journal's metrics
/// bit for bit, and a served forecast is byte-identical to what offline
/// Forecast() output formats to (serve_test).

namespace tfb::base {

/// One parsed JSON value; a tagged union grown the simple way (request
/// bodies and journal lines are small, so per-value overhead is irrelevant).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // Insertion order.

  bool is_null() const { return kind == Kind::kNull; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

/// Parses `text` (one JSON document, trailing whitespace allowed) into
/// `*out`. INVALID_INPUT with the byte offset on any syntax error.
Status ParseJson(const std::string& text, JsonValue* out);

/// Appends `value` as a quoted JSON string: `"` and `\` escaped, \n \r
/// \t in their short forms, every other control byte as \u00XX. Bytes
/// >= 0x80 pass through untouched (UTF-8 stays UTF-8).
void AppendJsonString(std::string* out, std::string_view value);

/// Appends a double as %.17g — exact decimal round trip for any finite
/// value; non-finite values (which JSON cannot carry) become null.
void AppendJsonDouble(std::string* out, double value);

}  // namespace tfb::base

#endif  // TFB_BASE_JSON_H_
