// printf-style std::string formatting, used for console lines and reports.
#ifndef SRC_UTIL_STRINGS_H_
#define SRC_UTIL_STRINGS_H_

#include <cstdarg>
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

}  // namespace snowboard

#endif  // SRC_UTIL_STRINGS_H_
