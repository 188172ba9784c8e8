// Trace-driven traffic (paper §V: "In the future, we will evaluate with
// real workloads").
//
// A trace is an ordered list of (cycle, src, dst, size_flits) records. The
// `TraceInjector` replays one into the NIC at the recorded cycles. Traces
// are synthesized in memory by `generate_bursty_trace`, an on/off
// Markov-modulated process that mimics application phase behavior (bursts
// of correlated traffic separated by quiet periods) — the closest synthetic
// stand-in for the real workloads the paper defers to future work.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "network/network.hpp"
#include "sim/clocked.hpp"

namespace ownsim {

struct TraceRecord {
  Cycle cycle = 0;
  NodeId src = 0;
  NodeId dst = 0;
  int size_flits = 1;
};

class Trace {
 public:
  Trace() = default;
  /// Throws std::runtime_error unless the cycles are non-decreasing.
  explicit Trace(std::vector<TraceRecord> records);

  const std::vector<TraceRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  Cycle duration() const {
    return records_.empty() ? 0 : records_.back().cycle + 1;
  }

  /// Largest node id referenced + 1.
  NodeId max_node() const;

  /// Total flits in the trace.
  std::int64_t total_flits() const;

 private:
  std::vector<TraceRecord> records_;  // sorted by cycle
};

struct BurstyTraceParams {
  int num_nodes = 64;
  Cycle duration = 10000;
  double on_rate = 0.02;       ///< packets/node/cycle while a node is ON
  double p_on_to_off = 0.008;  ///< per-cycle phase-exit probabilities
  double p_off_to_on = 0.002;  ///< (mean ON ~125 cycles, OFF ~500)
  int packet_flits = 4;
  /// Fraction of packets sent to a node-local "neighborhood" (spatial
  /// locality typical of real workloads); the rest are uniform.
  double locality = 0.6;
  int neighborhood = 8;
  std::uint64_t seed = 1;
};

/// Synthesizes a Markov-modulated on/off trace (see header comment).
Trace generate_bursty_trace(const BurstyTraceParams& params);

/// Replays a trace into a network's NIC. Records at cycle t are enqueued
/// when the engine reaches t; replay can loop for steady-state studies.
class TraceInjector final : public Clocked {
 public:
  TraceInjector(Network* network, Trace trace, std::uint32_t flit_bits = 128,
                bool loop = false);

  /// Packets created inside [begin, end) are tagged as measured.
  void set_measure_window(Cycle begin, Cycle end) {
    measure_begin_ = begin;
    measure_end_ = end;
  }

  void eval(Cycle now) override;
  void commit(Cycle /*now*/) override {}

  /// Always dormant between records: the schedule is known ahead of time, so
  /// every eval posts a wakeup for the next record's cycle (none once a
  /// non-looping trace is exhausted).
  bool is_idle() const override { return true; }

  std::int64_t packets_offered() const { return packets_offered_; }
  std::int64_t measured_offered() const { return measured_offered_; }
  bool finished() const { return !loop_ && next_ >= trace_.size(); }

 private:
  Network* network_;
  Trace trace_;
  std::uint32_t flit_bits_;
  bool loop_;
  std::size_t next_ = 0;
  Cycle epoch_offset_ = 0;  ///< accumulated duration across loop iterations
  std::int64_t packets_offered_ = 0;
  std::int64_t measured_offered_ = 0;
  Cycle measure_begin_ = kNeverCycle;
  Cycle measure_end_ = kNeverCycle;
};

}  // namespace ownsim
