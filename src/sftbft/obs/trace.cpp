#include "sftbft/obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace sftbft::obs {

TraceEvent instant_event(const char* category, const char* name,
                         ReplicaId replica, SimTime ts, TraceEvent::Arg a0,
                         TraceEvent::Arg a1, TraceEvent::Arg a2) {
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.phase = 'i';
  event.replica = replica;
  event.ts = ts;
  event.args = {a0, a1, a2};
  return event;
}

TraceEvent span_event(const char* category, const char* name,
                      ReplicaId replica, std::uint64_t lane, SimTime start,
                      SimTime end, TraceEvent::Arg a0, TraceEvent::Arg a1,
                      TraceEvent::Arg a2) {
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.phase = 'X';
  event.replica = replica;
  event.lane = lane;
  event.ts = start;
  event.dur = end >= start ? end - start : 0;
  event.args = {a0, a1, a2};
  return event;
}

namespace {

TraceEvent flow_event(char phase, const char* category, const char* name,
                      ReplicaId replica, std::uint64_t lane, SimTime ts,
                      std::uint64_t flow_id) {
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.phase = phase;
  event.replica = replica;
  event.lane = lane;
  event.ts = ts;
  event.flow_id = flow_id;
  return event;
}

}  // namespace

TraceEvent flow_start_event(const char* category, const char* name,
                            ReplicaId replica, std::uint64_t lane, SimTime ts,
                            std::uint64_t flow_id) {
  return flow_event('s', category, name, replica, lane, ts, flow_id);
}

TraceEvent flow_finish_event(const char* category, const char* name,
                             ReplicaId replica, std::uint64_t lane, SimTime ts,
                             std::uint64_t flow_id) {
  return flow_event('f', category, name, replica, lane, ts, flow_id);
}

TraceEvent counter_event(const char* category, const char* name,
                         ReplicaId replica, SimTime ts,
                         TraceEvent::Arg value) {
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.phase = 'C';
  event.replica = replica;
  event.ts = ts;
  event.args = {value, {}, {}};
  return event;
}

namespace {

/// Category/name/arg-key strings are compile-time literals (identifiers and
/// spaces), but escape defensively — a stray quote must not produce an
/// unparseable trace.
void append_json_string(std::string& out, const char* s) {
  out.push_back('"');
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out.append(buf);
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

void append_event(std::string& out, const TraceEvent& event) {
  char buf[128];
  out.append("{\"name\":");
  append_json_string(out, event.name);
  out.append(",\"cat\":");
  append_json_string(out, event.category);
  std::snprintf(buf, sizeof(buf),
                ",\"ph\":\"%c\",\"pid\":%u,\"tid\":%" PRIu64
                ",\"ts\":%" PRId64,
                event.phase, event.replica, event.lane, event.ts);
  out.append(buf);
  if (event.phase == 'X') {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%" PRId64, event.dur);
    out.append(buf);
  } else if (event.phase == 'i') {
    out.append(",\"s\":\"t\"");  // instant scope: thread
  } else if (event.phase == 's' || event.phase == 'f') {
    std::snprintf(buf, sizeof(buf), ",\"id\":%" PRIu64, event.flow_id);
    out.append(buf);
    // Bind the finish to its enclosing slice so the arrow lands on the
    // receiver-side handling span rather than the next slice to start.
    if (event.phase == 'f') out.append(",\"bp\":\"e\"");
  }
  bool any_args = false;
  for (const TraceEvent::Arg& arg : event.args) {
    if (arg.key == nullptr) continue;
    out.append(any_args ? "," : ",\"args\":{");
    any_args = true;
    append_json_string(out, arg.key);
    std::snprintf(buf, sizeof(buf), ":%" PRIu64, arg.value);
    out.append(buf);
  }
  if (any_args) out.push_back('}');
  out.push_back('}');
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                              std::uint32_t n,
                              const std::string& other_data_json) {
  std::string out;
  // ~120 bytes per event is a comfortable upper bound; one reserve avoids
  // repeated growth on multi-100k-event traces.
  out.reserve(64 + events.size() * 120 + static_cast<std::size_t>(n) * 80 +
              other_data_json.size());
  out.append("{\"displayTimeUnit\":\"ms\",");
  if (!other_data_json.empty()) {
    out.append("\"otherData\":");
    out.append(other_data_json);
    out.push_back(',');
  }
  out.append("\"traceEvents\":[");
  bool first = true;
  char buf[128];
  for (std::uint32_t id = 0; id < n; ++id) {
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"args\":{\"name\":\"replica %u\"}}",
                  id, id);
    out.append(buf);
  }
  for (const TraceEvent& event : events) {
    if (!first) out.push_back(',');
    first = false;
    append_event(out, event);
  }
  out.append("]}");
  return out;
}

// ----------------------------------------------------------- FlightRecorder

FlightRecorder::FlightRecorder(std::uint32_t n,
                               std::size_t capacity_per_replica)
    : capacity_(std::max<std::size_t>(1, capacity_per_replica)),
      rings_(n),
      evicted_(n, 0) {}

void FlightRecorder::append(const TraceEvent& event) {
  if (event.replica >= rings_.size()) return;
  Ring& ring = rings_[event.replica];
  if (ring.events.size() < capacity_) {
    ring.events.push_back(event);
    return;
  }
  ring.events[ring.next] = event;
  if (++ring.next == capacity_) ring.next = 0;
  ++evicted_[event.replica];
}

std::vector<TraceEvent> FlightRecorder::snapshot() const {
  std::vector<TraceEvent> all;
  std::size_t total = 0;
  for (const Ring& ring : rings_) total += ring.events.size();
  all.reserve(total);
  for (const Ring& ring : rings_) {
    // Oldest first: the slots from `next` on, then the wrapped-over front.
    const auto split = ring.events.begin() +
                       static_cast<std::ptrdiff_t>(ring.next);
    all.insert(all.end(), split, ring.events.end());
    all.insert(all.end(), ring.events.begin(), split);
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts < b.ts;
                   });
  return all;
}

std::string FlightRecorder::dump() const {
  const std::vector<TraceEvent> events = snapshot();
  std::string out;
  out.reserve(events.size() * 64 + 128);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "flight recorder: %zu events retained (capacity %zu/replica)\n",
                events.size(), capacity_);
  out.append(buf);
  for (const TraceEvent& event : events) {
    std::snprintf(buf, sizeof(buf), "[%12.6fs] r%-3u %s/%s",
                  static_cast<double>(event.ts) / 1e6, event.replica,
                  event.category, event.name);
    out.append(buf);
    for (const TraceEvent::Arg& arg : event.args) {
      if (arg.key == nullptr) continue;
      std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, arg.key, arg.value);
      out.append(buf);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace sftbft::obs
