#include "cts/obs/span_stats.hpp"

#include <algorithm>

namespace cts::obs {

SpanTable& SpanTable::global() {
  static SpanTable* instance = new SpanTable();
  return *instance;
}

void SpanTable::fold(const std::string& path, const char* name,
                     std::int64_t dur_us, std::int64_t self_us,
                     std::int64_t cpu_self_us) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = paths_.find(path);
  if (it == paths_.end()) {
    SpanPathAgg fresh;
    fresh.path = path;
    fresh.name = name;
    fresh.min_us = dur_us;
    fresh.max_us = dur_us;
    it = paths_.emplace(path, std::move(fresh)).first;
  }
  SpanPathAgg& agg = it->second;
  ++agg.count;
  agg.total_us += dur_us;
  agg.self_us += self_us;
  agg.min_us = std::min(agg.min_us, dur_us);
  agg.max_us = std::max(agg.max_us, dur_us);
  agg.cpu_self_us += cpu_self_us;
}

std::vector<SpanPathAgg> SpanTable::paths() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanPathAgg> out;
  out.reserve(paths_.size());
  for (const auto& [path, agg] : paths_) out.push_back(agg);
  return out;
}

void SpanTable::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  paths_.clear();
}

std::string span_phase(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

std::vector<SpanAgg> spans_by_name(const std::vector<SpanPathAgg>& paths) {
  std::map<std::string, SpanAgg> by_name;
  for (const SpanPathAgg& p : paths) {
    SpanAgg& agg = by_name[p.name];
    if (agg.count == 0) {
      agg.name = p.name;
      agg.min_us = p.min_us;
      agg.max_us = p.max_us;
    } else {
      agg.min_us = std::min(agg.min_us, p.min_us);
      agg.max_us = std::max(agg.max_us, p.max_us);
    }
    agg.count += p.count;
    agg.total_us += p.total_us;
    agg.self_us += p.self_us;
  }
  std::vector<SpanAgg> out;
  out.reserve(by_name.size());
  for (auto& [name, agg] : by_name) out.push_back(std::move(agg));
  std::sort(out.begin(), out.end(), [](const SpanAgg& a, const SpanAgg& b) {
    if (a.self_us != b.self_us) return a.self_us > b.self_us;
    return a.name < b.name;
  });
  return out;
}

std::vector<PhaseSelfTime> phase_self_times(const std::vector<SpanAgg>& spans) {
  std::map<std::string, PhaseSelfTime> by_phase;
  for (const SpanAgg& s : spans) {
    PhaseSelfTime& p = by_phase[span_phase(s.name)];
    if (p.phase.empty()) p.phase = span_phase(s.name);
    p.self_us += s.self_us;
    p.spans += s.count;
  }
  std::vector<PhaseSelfTime> out;
  out.reserve(by_phase.size());
  for (auto& [phase, p] : by_phase) out.push_back(std::move(p));
  std::sort(out.begin(), out.end(),
            [](const PhaseSelfTime& a, const PhaseSelfTime& b) {
              if (a.self_us != b.self_us) return a.self_us > b.self_us;
              return a.phase < b.phase;
            });
  return out;
}

}  // namespace cts::obs
