#include "cts/obs/event_log.hpp"

#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>

#include "cts/obs/json.hpp"
#include "cts/util/error.hpp"

namespace cts::obs {

namespace {

std::int64_t wall_clock_ms() noexcept {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "info";
}

LogLevel parse_log_level(const std::string& name) {
  // Case-insensitive: --log-level=INFO and --log-level=Info are the
  // spellings other toolchains emit, and rejecting them cost real runs.
  std::string folded;
  folded.reserve(name.size());
  for (const char ch : name) {
    folded.push_back(ch >= 'A' && ch <= 'Z'
                         ? static_cast<char>(ch - 'A' + 'a')
                         : ch);
  }
  if (folded == "debug") return LogLevel::kDebug;
  if (folded == "info") return LogLevel::kInfo;
  if (folded == "warn") return LogLevel::kWarn;
  if (folded == "error") return LogLevel::kError;
  throw util::InvalidArgument(
      "log level must be debug|info|warn|error (any case), got " + name);
}

EventLog& EventLog::global() {
  static EventLog* instance = new EventLog();
  return *instance;
}

void EventLog::open(const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::app);
  util::require(static_cast<bool>(*file),
                "event log: cannot open " + path + " for append");
  const std::lock_guard<std::mutex> lock(mu_);
  file_ = std::move(file);
  stream_ = nullptr;
}

void EventLog::to_stream(std::ostream* os) {
  const std::lock_guard<std::mutex> lock(mu_);
  stream_ = os;
  file_.reset();
}

void EventLog::set_min_level(LogLevel level) {
  const std::lock_guard<std::mutex> lock(mu_);
  min_level_ = level;
}

void EventLog::set_ring_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mu_);
  ring_capacity_ = capacity;
  while (ring_.size() > ring_capacity_) ring_.pop_front();
}

std::size_t EventLog::ring_capacity() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ring_capacity_;
}

void EventLog::log(LogLevel level, std::string event,
                   std::vector<LogField> fields) noexcept {
  try {
    LogEvent e;
    e.level = level;
    e.event = std::move(event);
    e.fields = std::move(fields);
    e.ts_ms = wall_clock_ms();
    const std::lock_guard<std::mutex> lock(mu_);
    ++recorded_;
    if (ring_capacity_ > 0) {
      ring_.push_back(e);
      while (ring_.size() > ring_capacity_) ring_.pop_front();
    }
    if (static_cast<int>(level) >= static_cast<int>(min_level_)) {
      emit_locked(e);
    }
  } catch (...) {
    // Logging must never take down a daemon.
  }
}

void EventLog::emit_locked(const LogEvent& e) {
  std::ostream* os = file_ ? file_.get() : stream_;
  if (os == nullptr) return;
  *os << format_line(e) << '\n';
  // One flush per line: the log of a SIGKILLed process stays complete up
  // to its last event, which is the whole point of a flight log.
  os->flush();
  ++emitted_;
}

std::vector<LogEvent> EventLog::ring() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::vector<LogEvent>(ring_.begin(), ring_.end());
}

std::uint64_t EventLog::recorded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t EventLog::emitted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return emitted_;
}

void EventLog::dump_ring(std::ostream& os) const {
  for (const LogEvent& e : ring()) {
    os << format_line(e) << '\n';
  }
  os.flush();
}

bool EventLog::dump_ring_to(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  dump_ring(out);
  return static_cast<bool>(out);
}

void EventLog::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  recorded_ = 0;
  emitted_ = 0;
  min_level_ = LogLevel::kInfo;
  ring_capacity_ = 256;
  file_.reset();
  stream_ = nullptr;
}

std::string EventLog::format_line(const LogEvent& e) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kEventsSchema);
  w.key("ts_ms").value(e.ts_ms);
  w.key("pid").value(static_cast<std::int64_t>(::getpid()));
  w.key("level").value(level_name(e.level));
  w.key("event").value(e.event);
  w.key("fields").begin_object();
  for (const LogField& f : e.fields) {
    w.key(f.name);
    switch (f.kind) {
      case LogField::Kind::kString:
        w.value(f.s);
        break;
      case LogField::Kind::kInt:
        w.value(f.i);
        break;
      case LogField::Kind::kUint:
        w.value(f.u);
        break;
      case LogField::Kind::kDouble:
        w.value(f.d);
        break;
      case LogField::Kind::kBool:
        w.value(f.b);
        break;
    }
  }
  w.end_object();
  w.end_object();
  return os.str();
}

void log_debug(std::string event, std::vector<LogField> fields) {
  EventLog::global().log(LogLevel::kDebug, std::move(event), std::move(fields));
}

void log_info(std::string event, std::vector<LogField> fields) {
  EventLog::global().log(LogLevel::kInfo, std::move(event), std::move(fields));
}

void log_warn(std::string event, std::vector<LogField> fields) {
  EventLog::global().log(LogLevel::kWarn, std::move(event), std::move(fields));
}

void log_error(std::string event, std::vector<LogField> fields) {
  EventLog::global().log(LogLevel::kError, std::move(event), std::move(fields));
}

}  // namespace cts::obs
