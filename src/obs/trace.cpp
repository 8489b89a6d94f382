#include "cts/obs/trace.hpp"

#include <time.h>

#include <chrono>
#include <fstream>
#include <sstream>

#include "cts/obs/json.hpp"
#include "cts/obs/span_stats.hpp"

namespace cts::obs {

namespace {

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Small, stable per-thread ordinal for the Chrome "tid" field.
int current_tid() noexcept {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

std::int64_t thread_cpu_us() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

/// The innermost open span on this thread, and the ';'-joined names of
/// every open span on it, outermost first.
thread_local ScopedSpan* t_open = nullptr;
thread_local std::string t_path;

}  // namespace

TraceRecorder::TraceRecorder() : epoch_ns_(steady_ns()) {}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* instance = new TraceRecorder();
  return *instance;
}

std::int64_t TraceRecorder::now_us() const noexcept {
  return (steady_ns() - epoch_ns_) / 1000;
}

void TraceRecorder::record(std::string name, std::int64_t ts_us,
                           std::int64_t dur_us) {
  TraceEvent event;
  event.name = std::move(name);
  event.tid = current_tid();
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::size_t TraceRecorder::event_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceRecorder::events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void TraceRecorder::write_json(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w(os);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const TraceEvent& e : events_) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("cat").value("cts");
    w.key("ph").value("X");
    w.key("pid").value(std::int64_t{1});
    w.key("tid").value(static_cast<std::int64_t>(e.tid));
    w.key("ts").value(e.ts_us);
    w.key("dur").value(e.dur_us);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

bool TraceRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  out.flush();
  return static_cast<bool>(out);
}

void TraceRecorder::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

ScopedSpan::ScopedSpan(const char* name) noexcept
    : name_(name), parent_(t_open), path_len_(t_path.size()) {
  try {
    if (!t_path.empty()) t_path += ';';
    t_path += name;
  } catch (...) {
    t_path.resize(path_len_);  // allocation failure: this span stays inert
    return;
  }
  t_open = this;
  TraceRecorder& recorder = TraceRecorder::global();
  traced_ = recorder.enabled();
  start_us_ = recorder.now_us();
  cpu_start_us_ = thread_cpu_us();
}

ScopedSpan::~ScopedSpan() {
  if (t_open != this) return;  // inert
  TraceRecorder& recorder = TraceRecorder::global();
  const std::int64_t dur_us = recorder.now_us() - start_us_;
  const std::int64_t cpu_us = thread_cpu_us() - cpu_start_us_;
  t_open = parent_;
  if (parent_ != nullptr) {
    parent_->child_us_ += dur_us;
    parent_->child_cpu_us_ += cpu_us;
  }
  try {
    SpanTable::global().fold(t_path, name_, dur_us, dur_us - child_us_,
                             cpu_us - child_cpu_us_);
    // Enabled mid-span: no half span; disabled mid-span: dropped.
    if (traced_ && recorder.enabled()) {
      recorder.record(name_, start_us_, dur_us);
    }
  } catch (...) {
    // Accounting must never take down a run.
  }
  t_path.resize(path_len_);
}

}  // namespace cts::obs
