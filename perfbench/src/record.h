// Small helpers shared by the benchmark binary: a steady clock, order
// statistics, counter reads, peak RSS and a minimal ordered JSON object writer.
#ifndef PERFBENCH_RECORD_H_
#define PERFBENCH_RECORD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide origin.
double Now();

inline double Median(std::vector<double> values) {
  return veritas::Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);

/// The highest whole percentile that still has at least ten samples beyond
/// it (nearest-rank), with the percentile and the sample count it came from.
/// With fewer than 20 samples it is the maximum, reported as percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
Tail TailOf(std::vector<double> values);
/// The nearest-rank `percentile` of `values` (0 when empty).
double PercentileOf(std::vector<double> values, std::size_t percentile);

/// Current value of a MetricsRegistry counter.
std::uint64_t CounterValue(const std::string& name);

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
double PeakRssMb();

/// 64-bit FNV-1a over a sequence of item ids, printed as hex.
std::string DigestOf(const std::vector<std::uint32_t>& ids);

/// Ordered JSON object. Values are inserted pre-encoded, so nesting is a
/// matter of adding another object's ToString() with AddRaw.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, std::uint64_t value);
  JsonObject& Add(const std::string& key, int value) {
    return Add(key, static_cast<std::uint64_t>(value));
  }
  JsonObject& Add(const std::string& key, bool value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonObject& AddRaw(const std::string& key, const std::string& json);
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonQuote(const std::string& text);
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_RECORD_H_
