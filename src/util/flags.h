// Minimal --key=value command-line flag parsing for examples and benches.
#ifndef DHMM_UTIL_FLAGS_H_
#define DHMM_UTIL_FLAGS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/status.h"

namespace dhmm {

/// \brief Parses `--key=value` / `--switch` style arguments.
///
/// Unknown positional arguments are rejected so typos surface immediately,
/// and flags that were parsed but never read by any getter can be reported
/// via UnreadFlags() / VerifyAllRead() so misspelled *names* surface too.
///
/// Thread-compatible, not thread-safe: the const getters record which
/// flags were read (for the typo guard), so a parser shared across threads
/// needs external synchronization. CLIs parse and read flags in main()
/// before spawning workers.
class FlagParser {
 public:
  /// Parses argv; returns InvalidArgument on malformed tokens.
  Status Parse(int argc, const char* const* argv);

  /// Typed getters with defaults. Returns the default when the flag is
  /// absent. A present-but-malformed value (not a number, empty `--x=`,
  /// overflow) prints a clear error to stderr and falls back to the
  /// default — it never aborts the process and never silently parses as 0.
  /// Tools that want to fail instead should use the strict single-argument
  /// overloads below.
  std::string GetString(const std::string& key, const std::string& def) const;
  int GetInt(const std::string& key, int def) const;
  double GetDouble(const std::string& key, double def) const;

  /// Strict getters: NotFound when the flag is absent, InvalidArgument when
  /// the value is empty, unparseable, or out of range for the target type.
  Result<int> GetInt(const std::string& key) const;
  Result<double> GetDouble(const std::string& key) const;

  /// True if the flag appeared on the command line (marks it as read).
  bool Has(const std::string& key) const {
    if (values_.count(key) == 0) return false;
    read_.insert(key);
    return true;
  }

  /// Flags that were parsed but never touched by Has() or any getter —
  /// almost always a misspelled flag name. Sorted.
  std::vector<std::string> UnreadFlags() const;

  /// InvalidArgument naming every unread flag; OK when there are none.
  /// CLIs should call this after their last getter so typos fail loudly.
  Status VerifyAllRead() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;  // keys consumed by Has()/getters
};

}  // namespace dhmm

#endif  // DHMM_UTIL_FLAGS_H_
