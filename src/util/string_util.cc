#include "util/string_util.h"

#include <cstdio>

namespace dhmm {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    // vsnprintf writes the terminating NUL into [data, data+n], which is
    // legal to overwrite for std::string since C++11.
    std::vsnprintf(out.data(), static_cast<size_t>(n) + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string PadLeft(const std::string& s, size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string PadRight(const std::string& s, size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

}  // namespace dhmm
