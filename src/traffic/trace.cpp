#include "traffic/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace ownsim {

Trace::Trace(std::vector<TraceRecord> records) : records_(std::move(records)) {
  for (std::size_t i = 1; i < records_.size(); ++i) {
    if (records_[i].cycle < records_[i - 1].cycle) {
      throw std::runtime_error("Trace: records must be cycle-ordered");
    }
  }
}

NodeId Trace::max_node() const {
  NodeId max = 0;
  for (const TraceRecord& rec : records_) {
    max = std::max({max, rec.src, rec.dst});
  }
  return records_.empty() ? 0 : max + 1;
}

std::int64_t Trace::total_flits() const {
  std::int64_t total = 0;
  for (const TraceRecord& rec : records_) total += rec.size_flits;
  return total;
}

Trace generate_bursty_trace(const BurstyTraceParams& params) {
  if (params.num_nodes < 2 || params.duration < 1) {
    throw std::invalid_argument("generate_bursty_trace: bad parameters");
  }
  Rng rng(params.seed);
  std::vector<bool> on(static_cast<std::size_t>(params.num_nodes), false);
  std::vector<TraceRecord> records;
  for (Cycle t = 0; t < params.duration; ++t) {
    for (NodeId n = 0; n < params.num_nodes; ++n) {
      // Phase transitions first, then emission while ON.
      if (on[n]) {
        if (rng.chance(params.p_on_to_off)) on[n] = false;
      } else if (rng.chance(params.p_off_to_on)) {
        on[n] = true;
      }
      if (!on[n] || !rng.chance(params.on_rate)) continue;
      TraceRecord rec;
      rec.cycle = t;
      rec.src = n;
      if (rng.chance(params.locality)) {
        // Neighborhood destination (wrap around the node space).
        const auto offset = static_cast<NodeId>(
            1 + rng.below(static_cast<std::uint64_t>(params.neighborhood)));
        rec.dst = (n + offset) % params.num_nodes;
      } else {
        rec.dst = static_cast<NodeId>(
            rng.below(static_cast<std::uint64_t>(params.num_nodes)));
      }
      rec.size_flits = params.packet_flits;
      records.push_back(rec);
    }
  }
  return Trace(std::move(records));
}

TraceInjector::TraceInjector(Network* network, Trace trace,
                             std::uint32_t flit_bits, bool loop)
    : network_(network),
      trace_(std::move(trace)),
      flit_bits_(flit_bits),
      loop_(loop) {
  if (network_ == nullptr) {
    throw std::invalid_argument("TraceInjector: null network");
  }
  if (trace_.max_node() > network_->spec().num_nodes) {
    throw std::invalid_argument("TraceInjector: trace references more nodes "
                                "than the network has");
  }
  if (loop_ && trace_.empty()) {
    throw std::invalid_argument("TraceInjector: cannot loop an empty trace");
  }
}

void TraceInjector::eval(Cycle now) {
  const bool measured = now >= measure_begin_ && now < measure_end_;
  while (true) {
    if (next_ >= trace_.size()) {
      if (!loop_) return;  // exhausted: stay dormant (no wakeup)
      next_ = 0;
      epoch_offset_ += trace_.duration();
    }
    const TraceRecord& rec = trace_.records()[next_];
    if (rec.cycle + epoch_offset_ > now) {
      request_wake(rec.cycle + epoch_offset_);
      return;
    }
    network_->nic().enqueue_packet(
        rec.src, rec.dst, network_->router_of(rec.dst), rec.size_flits,
        flit_bits_, network_->injection_vc_class(rec.src, rec.dst), now,
        measured);
    ++packets_offered_;
    if (measured) ++measured_offered_;
    ++next_;
  }
}

}  // namespace ownsim
