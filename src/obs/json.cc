#include "src/obs/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace iccache {

bool JsonParser::Parse(JsonValue* out) {
  SkipWhitespace();
  if (!ParseValue(out)) {
    return false;
  }
  SkipWhitespace();
  if (pos_ != text_.size()) {
    return Fail("trailing characters after document");
  }
  return true;
}

bool JsonParser::Fail(const std::string& message) {
  if (error_.empty()) {
    error_ = message + " at offset " + std::to_string(pos_);
  }
  return false;
}

void JsonParser::SkipWhitespace() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
}

bool JsonParser::Consume(char expected) {
  if (pos_ < text_.size() && text_[pos_] == expected) {
    ++pos_;
    return true;
  }
  return false;
}

bool JsonParser::ParseValue(JsonValue* out) {
  if (pos_ >= text_.size()) {
    return Fail("unexpected end of input");
  }
  switch (text_[pos_]) {
    case '{':
    case '[': {
      if (depth_ >= kMaxDepth) {
        return Fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      }
      ++depth_;
      const bool ok = text_[pos_] == '{' ? ParseObject(out) : ParseArray(out);
      --depth_;
      return ok;
    }
    case '"':
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    case 't':
    case 'f':
      return ParseBool(out);
    case 'n':
      return ParseNull(out);
    default:
      return ParseNumber(out);
  }
}

bool JsonParser::ParseObject(JsonValue* out) {
  out->kind = JsonValue::Kind::kObject;
  ++pos_;  // '{'
  SkipWhitespace();
  if (Consume('}')) {
    return true;
  }
  while (true) {
    SkipWhitespace();
    std::string key;
    if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
      return Fail("expected object key");
    }
    SkipWhitespace();
    if (!Consume(':')) {
      return Fail("expected ':' after object key");
    }
    SkipWhitespace();
    JsonValue value;
    if (!ParseValue(&value)) {
      return false;
    }
    out->object.emplace_back(std::move(key), std::move(value));
    SkipWhitespace();
    if (Consume(',')) {
      continue;
    }
    if (Consume('}')) {
      return true;
    }
    return Fail("expected ',' or '}' in object");
  }
}

bool JsonParser::ParseArray(JsonValue* out) {
  out->kind = JsonValue::Kind::kArray;
  ++pos_;  // '['
  SkipWhitespace();
  if (Consume(']')) {
    return true;
  }
  while (true) {
    SkipWhitespace();
    JsonValue value;
    if (!ParseValue(&value)) {
      return false;
    }
    out->array.push_back(std::move(value));
    SkipWhitespace();
    if (Consume(',')) {
      continue;
    }
    if (Consume(']')) {
      return true;
    }
    return Fail("expected ',' or ']' in array");
  }
}

bool JsonParser::ParseString(std::string* out) {
  ++pos_;  // opening quote
  out->clear();
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') {
      return true;
    }
    if (c == '\\') {
      if (pos_ >= text_.size()) {
        return Fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return Fail("invalid \\u escape");
            }
          }
          // Validation-only parser: keep the raw escape rather than decoding
          // UTF-16; none of the consumed fields use \u.
          out->append("\\u");
          out->append(text_, pos_, 4);
          pos_ += 4;
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    } else {
      out->push_back(c);
    }
  }
  return Fail("unterminated string");
}

bool JsonParser::ParseBool(JsonValue* out) {
  out->kind = JsonValue::Kind::kBool;
  if (text_.compare(pos_, 4, "true") == 0) {
    out->boolean = true;
    pos_ += 4;
    return true;
  }
  if (text_.compare(pos_, 5, "false") == 0) {
    out->boolean = false;
    pos_ += 5;
    return true;
  }
  return Fail("invalid literal");
}

bool JsonParser::ParseNull(JsonValue* out) {
  out->kind = JsonValue::Kind::kNull;
  if (text_.compare(pos_, 4, "null") == 0) {
    pos_ += 4;
    return true;
  }
  return Fail("invalid literal");
}

bool JsonParser::ParseNumber(JsonValue* out) {
  out->kind = JsonValue::Kind::kNumber;
  const size_t start = pos_;
  if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
    ++pos_;
  }
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
          text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
          text_[pos_] == '-' || text_[pos_] == '+')) {
    ++pos_;
  }
  if (pos_ == start) {
    return Fail("expected a value");
  }
  const std::string token = text_.substr(start, pos_ - start);
  char* end = nullptr;
  out->number = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return Fail("malformed number '" + token + "'");
  }
  return true;
}

void JsonAppendEscaped(std::ostringstream& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out << buffer;
        } else {
          out << c;
        }
    }
  }
}

std::string JsonNumberText(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

}  // namespace iccache
