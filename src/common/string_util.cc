#include "common/string_util.h"

#include <cstdarg>
#include <cstdio>

#if defined(__has_include)
#if __has_include(<charconv>)
#include <charconv>
#endif
#endif

namespace kf {

std::string_view SiteOfUrl(std::string_view url) {
  size_t start = 0;
  size_t scheme = url.find("://");
  if (scheme != std::string_view::npos) start = scheme + 3;
  return url.substr(0, url.find('/', start));
}

std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
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

std::string ToFixed(double value, int digits) {
  return StrFormat("%.*f", digits, value);
}

void AppendDouble17(std::string* out, double value) {
  char buf[64];
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  // to_chars(general, 17) emits exactly the %.17g digit string, minus
  // the locale machinery and the vsnprintf sizing pass.
  std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  out->append(buf, r.ptr);
#else
  int n = std::snprintf(buf, sizeof(buf), "%.17g", value);
  out->append(buf, static_cast<size_t>(n));
#endif
}

void AppendFixed(std::string* out, double value, int digits) {
  char buf[64];
  int n = std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  if (n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
    out->append(buf, static_cast<size_t>(n));
  } else {
    *out += ToFixed(value, digits);  // absurd digit counts: slow path
  }
}

void AppendU32(std::string* out, uint32_t value) {
  char buf[10];  // 4294967295 is 10 digits
  char* p = buf + sizeof(buf);
  do {
    *--p = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  out->append(p, buf + sizeof(buf));
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

}  // namespace kf
