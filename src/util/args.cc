#include "util/args.h"

#include <cstdlib>

#include "util/strings.h"

namespace veritas {

Result<ArgMap> ArgMap::Parse(int argc, const char* const* argv) {
  ArgMap out;
  int i = 1;  // Skip program name.
  while (i < argc) {
    const std::string token = argv[i];
    if (StartsWith(token, "--")) {
      const std::string key = token.substr(2);
      if (key.empty()) {
        return Status::InvalidArgument("empty option name '--'");
      }
      if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
        out.values_[key] = argv[i + 1];
        i += 2;
      } else {
        out.values_[key] = "";
        ++i;
      }
    } else {
      if (!out.command_.empty()) {
        return Status::InvalidArgument("unexpected positional argument: " +
                                       token);
      }
      out.command_ = token;
      ++i;
    }
  }
  return out;
}

std::string ArgMap::GetString(const std::string& key,
                              const std::string& fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

Result<long> ArgMap::GetInt(const std::string& key, long fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("option --" + key +
                                   " expects an integer, got '" +
                                   it->second + "'");
  }
  return parsed;
}

Result<double> ArgMap::GetDouble(const std::string& key,
                                 double fallback) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("option --" + key +
                                   " expects a number, got '" + it->second +
                                   "'");
  }
  return parsed;
}

std::vector<std::string> ArgMap::Keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, _] : values_) out.push_back(key);
  return out;
}

Status ArgMap::RejectUnread() const {
  std::string unread;
  for (const auto& [key, _] : values_) {
    if (read_.count(key) > 0) continue;
    if (!unread.empty()) unread += ", ";
    unread += "--" + key;
  }
  if (unread.empty()) return Status::OK();
  const std::string where =
      command_.empty() ? "" : " for command '" + command_ + "'";
  return Status::InvalidArgument("unknown option(s)" + where + ": " + unread);
}

}  // namespace veritas
