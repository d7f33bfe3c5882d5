// Structured trace layer: sim-time-stamped events in the Chrome trace-event
// format (load the written JSON at https://ui.perfetto.dev or
// chrome://tracing).
//
// Mapping: pid = replica id (one Perfetto process group per replica),
// tid = lane (block-lifecycle spans use the block height as the lane so the
// created -> proposed -> voted -> certified -> committed -> strong@x stages
// of one block nest on one track; point events use lane 0), ts/dur = sim
// time in microseconds (SimTime's native unit — no conversion).
//
// Block-lifecycle stages are "X" (complete) events that all start at the
// block's creation time with increasing durations — each stage span reads
// as "how far after creation did this block reach stage S on this replica",
// which is exactly the paper's latency definition rendered as a timeline.
// Everything else (pacemaker round entries/timeouts, sync rounds, batch
// lifecycle, WAL/snapshot writes, admission rejections) is an "i" (instant)
// event. The block stages, the vote-arrival instants and the pacemaker
// events have one writer, obs::LifecycleProbe (lifecycle.hpp), which also
// holds their names.
//
// v2 adds three more phases:
//   * "s"/"f" flow events stitch a sender-side emit site to the receiver-side
//     handling span across pids (Perfetto draws the arrow). Each delivered
//     Envelope gets a unique flow id; the 'f' end binds to the enclosing
//     slice ("bp":"e").
//   * "C" counter events render a named per-replica time series (mempool
//     depth, BatchStore size, current round) as a Perfetto counter track;
//     the series values ride in args.
//
// TraceEvent is a POD of static-string pointers and integers: recording one
// is a bounds-checked vector append, no allocation per event beyond the
// buffer's amortized growth. Category and name strings MUST be string
// literals (or otherwise outlive the buffer).
//
// FlightRecorder keeps the most recent events per replica in bounded rings
// regardless of whether full tracing is on — when a run ends in an auditor
// violation or without progress, the rings are dumped as a readable
// timeline ("Byzantine test failed" becomes "here is what every replica did
// last").
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sftbft/common/types.hpp"

namespace sftbft::obs {

struct TraceEvent {
  struct Arg {
    const char* key = nullptr;  ///< null = slot unused
    std::uint64_t value = 0;
  };

  const char* category = "";  ///< e.g. "block", "pacemaker", "dissem"
  const char* name = "";      ///< e.g. "certified", "round_enter"
  char phase = 'i';           ///< 'X', 'i', 's'/'f' (flow), or 'C' (counter)
  ReplicaId replica = 0;      ///< -> pid
  std::uint64_t lane = 0;     ///< -> tid (block height for lifecycle spans)
  SimTime ts = 0;             ///< microseconds
  SimDuration dur = 0;        ///< microseconds ('X' only)
  std::uint64_t flow_id = 0;  ///< flow binding id ('s'/'f' only)
  std::array<Arg, 3> args{};  ///< numeric args, in declaration order
};

/// Convenience constructors (keep call sites one-liners).
[[nodiscard]] TraceEvent instant_event(const char* category, const char* name,
                                       ReplicaId replica, SimTime ts,
                                       TraceEvent::Arg a0 = {},
                                       TraceEvent::Arg a1 = {},
                                       TraceEvent::Arg a2 = {});
[[nodiscard]] TraceEvent span_event(const char* category, const char* name,
                                    ReplicaId replica, std::uint64_t lane,
                                    SimTime start, SimTime end,
                                    TraceEvent::Arg a0 = {},
                                    TraceEvent::Arg a1 = {},
                                    TraceEvent::Arg a2 = {});
/// 's' (start) half of a flow arrow; must share id/category/name with its
/// 'f' end and fall inside an 'X' span on (replica, lane).
[[nodiscard]] TraceEvent flow_start_event(const char* category,
                                          const char* name, ReplicaId replica,
                                          std::uint64_t lane, SimTime ts,
                                          std::uint64_t flow_id);
/// 'f' (finish) half; binds to the enclosing slice ("bp":"e").
[[nodiscard]] TraceEvent flow_finish_event(const char* category,
                                           const char* name, ReplicaId replica,
                                           std::uint64_t lane, SimTime ts,
                                           std::uint64_t flow_id);
/// 'C' counter sample: one point of the per-replica series `name`.
[[nodiscard]] TraceEvent counter_event(const char* category, const char* name,
                                       ReplicaId replica, SimTime ts,
                                       TraceEvent::Arg value);

/// The full-run event journal (unbounded; only populated when tracing is
/// enabled).
class TraceBuffer {
 public:
  void append(const TraceEvent& event) { events_.push_back(event); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Serializes events as Chrome trace-event JSON ({"traceEvents": [...]}).
/// `n` adds process_name metadata ("replica <id>") for ids [0, n).
/// `other_data_json`, when non-empty, must be a complete JSON object (e.g.
/// a run manifest) and is embedded verbatim as the top-level "otherData"
/// value — the trace becomes self-describing (seed, engine, n, digest).
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<TraceEvent>& events, std::uint32_t n,
    const std::string& other_data_json = {});

/// Bounded per-replica rings of recent events.
class FlightRecorder {
 public:
  FlightRecorder(std::uint32_t n, std::size_t capacity_per_replica);

  void append(const TraceEvent& event);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size(ReplicaId replica) const {
    return rings_[replica].events.size();
  }
  /// Events evicted (overwritten) from one replica's ring so far.
  [[nodiscard]] std::uint64_t evicted(ReplicaId replica) const {
    return evicted_[replica];
  }

  /// All retained events, globally ordered by timestamp (stable across
  /// replicas at equal ts).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Human-readable timeline of snapshot() — one line per event:
  ///   [  12.345678s] r7  pacemaker/timeout round=42
  [[nodiscard]] std::string dump() const;

 private:
  struct Ring {
    /// Grows to the capacity once, then is overwritten in place.
    std::vector<TraceEvent> events;
    /// Next slot to overwrite once full: the oldest retained event.
    std::size_t next = 0;
  };

  std::size_t capacity_;
  std::vector<Ring> rings_;
  std::vector<std::uint64_t> evicted_;
};

}  // namespace sftbft::obs
