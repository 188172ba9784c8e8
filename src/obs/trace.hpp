// Chrome trace_event recorder.
//
// `TraceWriter` buffers timeline events in memory and serializes them in the
// Trace Event Format consumed by chrome://tracing and ui.perfetto.dev
// (JSON object form: {"traceEvents": [...]}). Timestamps are SIMULATED
// cycles mapped 1:1 onto microseconds — wall time never enters a trace, so
// recording one is deterministic and replayable.
//
// Track layout convention (see Network::set_trace):
//   pid kPidRun      — the measurement driver's warmup/measure/drain slices
//   pid kPidMedia    — one tid per shared medium: token grants (instant
//                      events) and per-packet bus occupancy (complete events)
//   pid kPidLinks    — one tid per point-to-point channel: coalesced busy
//                      intervals (complete events)
//
// Recording is observational: components take a nullable `TraceWriter*` and
// results are bit-identical with tracing on or off (asserted by
// Obs.TraceDoesNotPerturbResults). One writer serves one network's run on
// one thread, so the buffer takes no lock.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace ownsim::obs {

/// One trace_event record. `args` are pre-rendered (key, json-value) pairs;
/// string values must arrive already quoted.
struct TraceEvent {
  enum class Phase : char {
    kBegin = 'B',
    kEnd = 'E',
    kComplete = 'X',
    kInstant = 'i',
    kMetadata = 'M',
  };

  Phase phase = Phase::kInstant;
  std::string name;
  std::string cat;
  int pid = 0;
  int tid = 0;
  std::int64_t ts = 0;   ///< microseconds == simulated cycles
  std::int64_t dur = 0;  ///< kComplete only
  std::vector<std::pair<std::string, std::string>> args;
};

class TraceWriter {
 public:
  static constexpr int kPidRun = 1;
  static constexpr int kPidMedia = 2;
  static constexpr int kPidLinks = 3;

  void begin(std::string name, std::string cat, int pid, int tid, Cycle ts);
  void end(int pid, int tid, Cycle ts);
  void complete(std::string name, std::string cat, int pid, int tid, Cycle ts,
                Cycle dur,
                std::vector<std::pair<std::string, std::string>> args = {});
  void instant(std::string name, std::string cat, int pid, int tid, Cycle ts,
               std::vector<std::pair<std::string, std::string>> args = {});

  /// Perfetto-visible labels for the pid/tid tracks.
  void set_process_name(int pid, const std::string& name);
  void set_thread_name(int pid, int tid, const std::string& name);

  /// Direct view of the buffer (tests inspect it post-run).
  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} — one event per line.
  void write_json(std::ostream& os) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace ownsim::obs
