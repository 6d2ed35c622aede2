// Minimal command-line argument parsing for the veritas_cli tool:
// one positional command followed by --key value pairs and --flag switches.
// Every lookup records its key, so a tool can reject the options its
// command never read (a typo or a retired flag) instead of ignoring them.
#ifndef VERITAS_UTIL_ARGS_H_
#define VERITAS_UTIL_ARGS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/result.h"

namespace veritas {

/// Parsed command line: `prog <command> [--key value | --flag]...`.
class ArgMap {
 public:
  /// Parses argv. Every token starting with "--" is an option; if the next
  /// token exists and is not an option, it becomes the value, otherwise the
  /// option is a boolean flag. The first non-option token is the command.
  static Result<ArgMap> Parse(int argc, const char* const* argv);

  const std::string& command() const { return command_; }

  bool Has(const std::string& key) const {
    read_.insert(key);
    return values_.count(key) > 0;
  }

  /// String option with fallback.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;

  /// Integer option; InvalidArgument if present but unparsable.
  Result<long> GetInt(const std::string& key, long fallback) const;

  /// Double option; InvalidArgument if present but unparsable.
  Result<double> GetDouble(const std::string& key, double fallback) const;

  /// True when --key appeared (with or without a value).
  bool GetBool(const std::string& key) const { return Has(key); }

  /// Keys present (for error messages / debugging).
  std::vector<std::string> Keys() const;

  /// InvalidArgument naming every present key that no lookup (Has, Get*)
  /// has asked for yet; OK when there is none. Call it after the command
  /// has read all of its options and before it does any work.
  Status RejectUnread() const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;  // Keys looked up so far.
};

}  // namespace veritas

#endif  // VERITAS_UTIL_ARGS_H_
