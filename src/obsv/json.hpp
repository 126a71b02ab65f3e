#pragma once

/// \file json.hpp
/// Number and string formatting shared by the JSON writers
/// (obsv/export.cpp, obsv/attrib.cpp).

#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>

namespace xts::obsv {

/// `v` with 17 significant digits, enough to round-trip a double: the
/// same text as printf's "%.17g", without the format-string parse.
inline std::string gnum(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
  return std::string(buf, res.ptr);
}

// Only span and phase names reach the JSON, and those are simple
// identifiers — but escape defensively so a hostile name cannot
// corrupt the file.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace xts::obsv
