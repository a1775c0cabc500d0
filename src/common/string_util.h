// String helpers shared across the library: URL handling, joining, and
// printf-style formatting into std::string.
#ifndef KF_COMMON_STRING_UTIL_H_
#define KF_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kf {

/// Extracts the Website prefix of a URL: everything up to (excluding) the
/// first '/' after the scheme, per Section 4.3.1 of the paper
/// ("en.wikipedia.org/wiki/Data_fusion" -> "en.wikipedia.org"). The
/// result views a prefix of `url`.
std::string_view SiteOfUrl(std::string_view url);

/// Joins `pieces` with `sep`.
std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep);

/// printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders `value` with `digits` digits after the decimal point.
std::string ToFixed(double value, int digits);

// Allocation-free numeric appends for serialization hot loops: format
// into a stack buffer (std::to_chars where the library provides it for
// doubles, snprintf otherwise) and append to `out` — no per-call
// temporary std::string.

/// Appends `value` in %.17g form — 17 significant digits round-trip any
/// finite double bit-exactly through strtod.
void AppendDouble17(std::string* out, double value);

/// Appends `value` with `digits` digits after the decimal point.
void AppendFixed(std::string* out, double value, int digits);

/// Appends `value` in decimal.
void AppendU32(std::string* out, uint32_t value);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

}  // namespace kf

#endif  // KF_COMMON_STRING_UTIL_H_
