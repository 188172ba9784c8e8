#include "obs/trace.hpp"

#include <ostream>

#include "serve/json.hpp"

namespace ownsim::obs {

void TraceWriter::begin(std::string name, std::string cat, int pid, int tid,
                        Cycle ts) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kBegin;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.pid = pid;
  e.tid = tid;
  e.ts = ts;
  events_.push_back(std::move(e));
}

void TraceWriter::end(int pid, int tid, Cycle ts) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kEnd;
  e.pid = pid;
  e.tid = tid;
  e.ts = ts;
  events_.push_back(std::move(e));
}

void TraceWriter::complete(
    std::string name, std::string cat, int pid, int tid, Cycle ts, Cycle dur,
    std::vector<std::pair<std::string, std::string>> args) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kComplete;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.pid = pid;
  e.tid = tid;
  e.ts = ts;
  e.dur = dur;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceWriter::instant(
    std::string name, std::string cat, int pid, int tid, Cycle ts,
    std::vector<std::pair<std::string, std::string>> args) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.pid = pid;
  e.tid = tid;
  e.ts = ts;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceWriter::set_process_name(int pid, const std::string& name) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kMetadata;
  e.name = "process_name";
  e.pid = pid;
  e.args.emplace_back("name", serve::json_string(name));
  events_.push_back(std::move(e));
}

void TraceWriter::set_thread_name(int pid, int tid, const std::string& name) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kMetadata;
  e.name = "thread_name";
  e.pid = pid;
  e.tid = tid;
  e.args.emplace_back("name", serve::json_string(name));
  events_.push_back(std::move(e));
}

void TraceWriter::write_json(std::ostream& os) const {
  os << "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events_) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"ph\": \"" << static_cast<char>(e.phase) << '"';
    if (!e.name.empty()) os << ", \"name\": " << serve::json_string(e.name);
    if (!e.cat.empty()) os << ", \"cat\": " << serve::json_string(e.cat);
    os << ", \"pid\": " << e.pid << ", \"tid\": " << e.tid
       << ", \"ts\": " << e.ts;
    if (e.phase == TraceEvent::Phase::kComplete) os << ", \"dur\": " << e.dur;
    // Instant events need a scope; "t" (thread) keeps them on their track.
    if (e.phase == TraceEvent::Phase::kInstant) os << ", \"s\": \"t\"";
    if (!e.args.empty()) {
      os << ", \"args\": {";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        os << (i == 0 ? "" : ", ") << serve::json_string(e.args[i].first)
           << ": " << e.args[i].second;
      }
      os << '}';
    }
    os << '}';
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace ownsim::obs
