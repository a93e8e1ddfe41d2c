#pragma once

// Minimal JSON writing: rows are built as std::string with every string
// escaped, so no label length or content can produce an invalid document.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace praft::pbench {

inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as exactly `v`; null for NaN/infinity,
/// which JSON cannot carry.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::stod(buf) == v) break;
  }
  return buf;
}

/// One JSON object, built field by field.
class JsonObject {
 public:
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, json_string(v));
  }
  JsonObject& num(std::string_view key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& integer(std::string_view key, int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  /// `v` must already be valid JSON (a nested object or array).
  JsonObject& raw(std::string_view key, std::string_view v) {
    body_ += body_.empty() ? "" : ", ";
    body_ += json_string(key);
    body_ += ": ";
    body_ += v;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

inline std::string json_array(const std::vector<std::string>& items,
                              std::string_view sep = ",\n  ") {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out + "]";
}

/// Writes `text` to `path`; false (with a message on stderr) on failure.
inline bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace praft::pbench
