// Minimal dependency-free JSON support shared by the observability exporters
// and tools: a recursive-descent parser (objects, arrays, strings, numbers,
// booleans, null) plus the escaping/number-formatting helpers the writers
// use. Strict enough to reject malformed documents; tolerant of whitespace.
// Used only for validation, tooling, and bench artifacts — never on a hot
// path.
#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace iccache {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [name, value] : object) {
      if (name == key) {
        return &value;
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  // Arrays and objects nest at most this deep. The parser recurses once per
  // level, so a deeper (hostile) document is a parse error, not a stack
  // overflow.
  static constexpr size_t kMaxDepth = 128;

  explicit JsonParser(const std::string& text) : text_(text) {}

  // Parses the whole document; trailing non-whitespace is an error.
  bool Parse(JsonValue* out);

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& message);
  void SkipWhitespace();
  bool Consume(char expected);
  bool ParseValue(JsonValue* out);
  bool ParseObject(JsonValue* out);
  bool ParseArray(JsonValue* out);
  bool ParseString(std::string* out);
  bool ParseBool(JsonValue* out);
  bool ParseNull(JsonValue* out);
  bool ParseNumber(JsonValue* out);

  const std::string& text_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // arrays/objects currently open
  std::string error_;
};

// Appends `text` with JSON string escaping ("\n", "\t", \u00XX for other
// control characters).
void JsonAppendEscaped(std::ostringstream& out, const std::string& text);

// Shortest round-trippable-ish text for a double ("%.9g"): compact for file
// size, exact for the integer-valued counters the exporters mostly emit.
std::string JsonNumberText(double value);

}  // namespace iccache

#endif  // SRC_OBS_JSON_H_
