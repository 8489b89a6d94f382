#include "cts/obs/perf.hpp"

#include <chrono>
#include <fstream>

#include "cts/obs/event_log.hpp"
#include "cts/obs/json.hpp"
#include "cts/obs/span_stats.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define CTS_HAVE_GETRUSAGE 1
#endif

namespace cts::obs {

namespace {

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#ifdef CTS_HAVE_GETRUSAGE
double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
#endif

}  // namespace

// ---------------------------------------------------------------------------
// ResourceProbe

ResourceProbe::ResourceProbe() { restart(); }

void ResourceProbe::restart() {
  wall_start_ns_ = monotonic_ns();
#ifdef CTS_HAVE_GETRUSAGE
  rusage r;
  if (getrusage(RUSAGE_SELF, &r) == 0) {
    user_start_s_ = timeval_s(r.ru_utime);
    sys_start_s_ = timeval_s(r.ru_stime);
    vol_start_ = r.ru_nvcsw;
    invol_start_ = r.ru_nivcsw;
  }
#endif
}

ResourceUsage ResourceProbe::sample() const {
  ResourceUsage u;
  u.wall_s = static_cast<double>(monotonic_ns() - wall_start_ns_) * 1e-9;
#ifdef CTS_HAVE_GETRUSAGE
  rusage r;
  if (getrusage(RUSAGE_SELF, &r) == 0) {
    u.user_s = timeval_s(r.ru_utime) - user_start_s_;
    u.sys_s = timeval_s(r.ru_stime) - sys_start_s_;
    // ru_maxrss is a lifetime high-water mark (KiB on Linux, bytes on
    // macOS — normalised to KiB here), not restartable.
#if defined(__APPLE__)
    u.max_rss_kb = r.ru_maxrss / 1024;
#else
    u.max_rss_kb = r.ru_maxrss;
#endif
    u.ctx_voluntary = r.ru_nvcsw - vol_start_;
    u.ctx_involuntary = r.ru_nivcsw - invol_start_;
  }
#endif
  return u;
}

// ---------------------------------------------------------------------------
// The perf report

bool write_perf_report(
    const std::string& path, const ResourceProbe& probe,
    const std::vector<std::pair<std::string, std::string>>& info) {
  const ResourceUsage resources = probe.sample();
  const std::vector<SpanPathAgg> paths = SpanTable::global().paths();
  std::ofstream out(path);
  if (!out) return false;
  JsonWriter w(out);
  w.begin_object();
  w.key("schema").value(kPerfSchema);

  w.key("info").begin_object();
  for (const auto& [k, v] : info) w.key(k).value(v);
  w.end_object();

  w.key("resources").begin_object();
  w.key("wall_s").value(resources.wall_s);
  w.key("user_s").value(resources.user_s);
  w.key("sys_s").value(resources.sys_s);
  w.key("max_rss_kb").value(resources.max_rss_kb);
  w.key("ctx_voluntary").value(resources.ctx_voluntary);
  w.key("ctx_involuntary").value(resources.ctx_involuntary);
  w.end_object();

  std::uint64_t spans = 0;
  w.key("paths").begin_array();
  for (const SpanPathAgg& p : paths) {
    w.begin_object();
    w.key("path").value(p.path);
    w.key("count").value(p.count);
    w.key("total_us").value(p.total_us);
    w.key("self_us").value(p.self_us);
    w.key("cpu_self_us").value(p.cpu_self_us);
    w.key("min_us").value(p.min_us);
    w.key("max_us").value(p.max_us);
    w.end_object();
    spans += p.count;
  }
  w.end_array();

  w.key("phases").begin_array();
  for (const PhaseSelfTime& p : phase_self_times(spans_by_name(paths))) {
    w.begin_object();
    w.key("phase").value(p.phase);
    w.key("self_us").value(p.self_us);
    w.key("spans").value(p.spans);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  out.put('\n');
  out.flush();
  if (!out) return false;
  log_info("perf.write", {{"spans", spans}, {"path", path}});
  return true;
}

}  // namespace cts::obs
