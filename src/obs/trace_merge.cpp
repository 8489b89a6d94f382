#include "cts/obs/trace_merge.hpp"

#include <fstream>
#include <limits>

#include "cts/obs/json.hpp"
#include "cts/util/error.hpp"

namespace cts::obs {

namespace cu = cts::util;

std::int64_t estimate_clock_offset_us(std::int64_t t0_send_us,
                                      std::int64_t t1_recv_us,
                                      std::int64_t t2_reply_us,
                                      std::int64_t t3_done_us) {
  // ((t1 - t0) + (t2 - t3)) / 2: the symmetric-delay assumption cancels
  // the one-way network latency; what remains is the clock offset.
  return ((t1_recv_us - t0_send_us) + (t2_reply_us - t3_done_us)) / 2;
}

void write_merged_trace_json(std::ostream& os,
                             const std::vector<ProcessTrace>& lanes) {
  JsonWriter w(os);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const ProcessTrace& lane : lanes) {
    w.begin_object();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(static_cast<std::int64_t>(lane.pid));
    w.key("args").begin_object();
    w.key("name").value(lane.name);
    w.end_object();
    w.end_object();
    for (const TraceEvent& e : lane.events) {
      w.begin_object();
      w.key("name").value(e.name);
      w.key("cat").value("cts");
      w.key("ph").value("X");
      w.key("pid").value(static_cast<std::int64_t>(lane.pid));
      w.key("tid").value(static_cast<std::int64_t>(e.tid));
      w.key("ts").value(e.ts_us - lane.offset_us);
      w.key("dur").value(e.dur_us);
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
}

bool write_merged_trace(const std::string& path,
                        const std::vector<ProcessTrace>& lanes) {
  std::ofstream out(path);
  if (!out) return false;
  write_merged_trace_json(out, lanes);
  out.flush();
  return static_cast<bool>(out);
}

void write_trace_events(JsonWriter& w, const std::vector<TraceEvent>& events) {
  w.begin_array();
  for (const TraceEvent& e : events) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("tid").value(static_cast<std::int64_t>(e.tid));
    w.key("ts_us").value(e.ts_us);
    w.key("dur_us").value(e.dur_us);
    w.end_object();
  }
  w.end_array();
}

std::vector<TraceEvent> trace_events_from_json(const JsonValue& v) {
  cu::require(v.is_array(), "trace events: expected an array");
  std::vector<TraceEvent> events;
  events.reserve(v.items.size());
  for (const JsonValue& item : v.items) {
    cu::require(item.is_object(), "trace events: entry must be an object");
    TraceEvent e;
    e.name = item.at("name").as_string();
    cu::require(!e.name.empty(), "trace events: empty span name");
    e.tid = static_cast<int>(
        item.int_at("tid", 0, std::numeric_limits<int>::max()));
    e.ts_us = item.int_at("ts_us");
    e.dur_us = item.int_at("dur_us");
    events.push_back(std::move(e));
  }
  return events;
}

}  // namespace cts::obs
