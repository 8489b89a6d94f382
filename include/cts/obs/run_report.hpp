// Machine-diffable run reports (--metrics=<path>).
//
// A RunReport bundles a config echo (run id, seed, scale, thread count,
// argv) with the full contents of a MetricsRegistry and writes one JSON
// document:
//
//   {"config":{...},"metrics":{"counters":{...},"sums":{...},
//                              "gauges":{...},"log_histograms":{...}}}
//
// Two bench runs can then be diffed field-by-field (same seed => identical
// counters/sums; wall-time percentiles expose perf regressions).

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cts/obs/metrics.hpp"

namespace cts::obs {

/// Config-echo + metrics JSON exporter.
class RunReport {
 public:
  /// Config echo entries; insertion order is preserved in the output.
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, const char* value);
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, std::uint64_t value);
  void set(const std::string& key, double value);
  void set(const std::string& key, bool value);

  /// Writes the report (config + full registry contents) to `os`.
  void write_json(std::ostream& os,
                  const MetricsRegistry& registry = MetricsRegistry::global())
      const;

  /// Writes the report to `path`; returns false on I/O failure.
  bool write(const std::string& path,
             const MetricsRegistry& registry = MetricsRegistry::global())
      const;

 private:
  enum class Kind { kString, kInt, kUint, kDouble, kBool };
  struct Entry {
    std::string key;
    Kind kind;
    std::string s;
    std::int64_t i = 0;
    std::uint64_t u = 0;
    double d = 0.0;
    bool b = false;
  };

  Entry& upsert(const std::string& key);

  std::vector<Entry> entries_;
};

}  // namespace cts::obs
