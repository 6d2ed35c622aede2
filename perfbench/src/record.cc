#include "record.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"

namespace perfbench {

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Largest integer p with ceil(p/100 * n) <= n - 10. Below 20 samples
  // that percentile would sit under the median, so the maximum stands in.
  const std::size_t p = n > 10 ? (100 * (n - 10)) / n : 0;
  if (p < 50) {
    tail.value = values.back();
    return tail;
  }
  const std::size_t rank =
      std::max<std::size_t>(1, (p * n + 99) / 100);  // ceil(p * n / 100)
  tail.percentile = static_cast<double>(p);
  tail.value = values[rank - 1];
  return tail;
}

double PercentileOf(std::vector<double> values, std::size_t percentile) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t rank = std::max<std::size_t>(
      1, (percentile * n + 99) / 100);  // ceil(percentile * n / 100)
  return values[std::min(rank, n) - 1];
}

std::uint64_t CounterValue(const std::string& name) {
  return veritas::MetricsRegistry::Global().GetCounter(name)->value();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string DigestOf(const std::vector<std::uint32_t>& ids) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint32_t id : ids) {
    for (int b = 0; b < 4; ++b) {
      h ^= (id >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  return AddRaw(key, JsonNumber(value));
}

JsonObject& JsonObject::Add(const std::string& key, std::uint64_t value) {
  return AddRaw(key, std::to_string(value));
}

JsonObject& JsonObject::Add(const std::string& key, bool value) {
  return AddRaw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  return AddRaw(key, JsonQuote(value));
}

JsonObject& JsonObject::AddRaw(const std::string& key,
                               const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
