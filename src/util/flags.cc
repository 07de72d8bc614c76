#include "util/flags.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/string_util.h"

namespace dhmm {

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return Status::OK();
}

std::string FlagParser::GetString(const std::string& key,
                                  const std::string& def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  read_.insert(key);
  return it->second;
}

Result<int> FlagParser::GetInt(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return Status::NotFound("flag --" + key + " not set");
  }
  read_.insert(key);
  const std::string& value = it->second;
  if (value.empty()) {
    return Status::InvalidArgument("--" + key + "= has an empty value");
  }
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("--" + key + "=" + value +
                                   " is not an integer");
  }
  if (errno == ERANGE || v < INT_MIN || v > INT_MAX) {
    return Status::InvalidArgument("--" + key + "=" + value +
                                   " overflows int");
  }
  return static_cast<int>(v);
}

int FlagParser::GetInt(const std::string& key, int def) const {
  if (!Has(key)) return def;
  Result<int> r = GetInt(key);
  if (r.ok()) return r.value();
  std::fprintf(stderr, "warning: %s; using default %d\n",
               r.status().message().c_str(), def);
  return def;
}

Result<double> FlagParser::GetDouble(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return Status::NotFound("flag --" + key + " not set");
  }
  read_.insert(key);
  const std::string& value = it->second;
  if (value.empty()) {
    return Status::InvalidArgument("--" + key + "= has an empty value");
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("--" + key + "=" + value +
                                   " is not a number");
  }
  // Underflow to a (de)normal near zero is accepted; magnitude overflow is
  // a malformed flag, not a usable value.
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) {
    return Status::InvalidArgument("--" + key + "=" + value +
                                   " overflows double");
  }
  return v;
}

double FlagParser::GetDouble(const std::string& key, double def) const {
  if (!Has(key)) return def;
  Result<double> r = GetDouble(key);
  if (r.ok()) return r.value();
  std::fprintf(stderr, "warning: %s; using default %g\n",
               r.status().message().c_str(), def);
  return def;
}

std::vector<std::string> FlagParser::UnreadFlags() const {
  std::vector<std::string> unread;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) unread.push_back(key);
  }
  return unread;
}

Status FlagParser::VerifyAllRead() const {
  std::vector<std::string> unread = UnreadFlags();
  if (unread.empty()) return Status::OK();
  return Status::InvalidArgument("unknown flag" +
                                 std::string(unread.size() > 1 ? "s" : "") +
                                 ": --" + StrJoin(unread, ", --"));
}

}  // namespace dhmm
