// printf-style std::string formatting, used for console lines and reports, and the strict
// decimal parsers that read numbers from outside input (campaign specs, command lines).
#ifndef SRC_UTIL_STRINGS_H_
#define SRC_UTIL_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>

namespace snowboard {

inline std::string StrPrintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

inline std::string StrPrintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

inline void StrAppendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

// Appends formatted text to `out` in place (trace/report emitters build multi-megabyte
// documents; appending avoids a temporary per line).
inline void StrAppendf(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed > 0) {
    size_t old_size = out->size();
    out->resize(old_size + static_cast<size_t>(needed));
    std::vsnprintf(out->data() + old_size, static_cast<size_t>(needed) + 1, fmt, args_copy);
  }
  va_end(args_copy);
}

// `text` escaped for the inside of a JSON string literal: quote, backslash and control
// characters (named escapes for \n, \r and \t, \u00XX for the rest).
inline std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          StrAppendf(&out, "\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Decimal digits only; a value that does not fit in 64 bits is rejected, never wrapped.
inline bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

// ParseU64's digits with an optional leading '-', and a magnitude of at most 2^30.
inline bool ParseInt(const std::string& text, int* out) {
  uint64_t value = 0;
  bool negative = !text.empty() && text[0] == '-';
  if (!ParseU64(negative ? text.substr(1) : text, &value) || value > 1u << 30) {
    return false;
  }
  *out = negative ? -static_cast<int>(value) : static_cast<int>(value);
  return true;
}

}  // namespace snowboard

#endif  // SRC_UTIL_STRINGS_H_
