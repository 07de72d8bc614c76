// Small string helpers: printf-style formatting, joining, padding.
//
// gcc 12 does not ship std::format, so benches and log lines use StrFormat.
#ifndef DHMM_UTIL_STRING_UTIL_H_
#define DHMM_UTIL_STRING_UTIL_H_

#include <cstdarg>
#include <string>
#include <vector>

namespace dhmm {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins the given parts with a separator.
std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep);

/// Left-pads (or truncates nothing) `s` with spaces up to `width`.
std::string PadLeft(const std::string& s, size_t width);

/// Right-pads `s` with spaces up to `width`.
std::string PadRight(const std::string& s, size_t width);

}  // namespace dhmm

#endif  // DHMM_UTIL_STRING_UTIL_H_
