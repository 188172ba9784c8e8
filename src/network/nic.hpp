// Network interface controller.
//
// One `Nic` instance serves every core: it owns per-node source queues,
// injects flits through each node's injection channel (respecting VC
// allocation and credits, exactly like a router output), and drains each
// node's ejection channel, assembling `PacketRecord`s when tail flits land.
//
// Source queues are unbounded so that offered load beyond saturation is
// measurable (accepted throughput flattens while queues grow) — the standard
// open-loop methodology for latency/throughput curves (Fig 7b,c). They hold
// one 32-byte record per packet; each flit is built from it at injection.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hpp"
#include "network/endpoints.hpp"
#include "network/flit.hpp"
#include "sim/clocked.hpp"

namespace ownsim {

class Nic final : public Clocked {
 public:
  explicit Nic(int num_nodes);

  /// Wiring (once per node, before the first cycle).
  void connect(NodeId node, OutputEndpoint* inject, InputEndpoint* eject);

  /// Queues a `size_flits`-flit packet for injection. `vc_class` is the
  /// deadlock class of the packet's first hop out of the source router.
  /// Returns the packet's id (unique per simulation).
  PacketId enqueue_packet(NodeId src, NodeId dst, RouterId dst_router,
                          int size_flits, std::uint32_t flit_bits,
                          int vc_class, Cycle now, bool measured);

  /// Visits only the ports in the ready set, in ascending order (see
  /// `is_idle`); a port the visit cannot advance leaves the set.
  void eval(Cycle now) override;
  void commit(Cycle /*now*/) override {}

  /// Dormant when no port is ready (DESIGN.md §5e). A port is ready from
  /// the enqueue of a packet until its queue empties or its injection
  /// channel's gate refuses a flit for want of a credit, and for one visit
  /// after its eject channel latches a flit. Whatever makes a dormant port
  /// ready wakes the NIC: `enqueue_packet` itself, the eject channel's
  /// arrival wake, the inject channel's wake when a credit opens its gate
  /// (`raise`).
  bool is_idle() const override {
    for (const std::uint64_t word : ready_) {
      if (word != 0) return false;
    }
    return true;
  }

  /// Marks `node`'s port ready for the next eval: called by the node's
  /// eject channel when it latches a flit (commit) and by its inject channel
  /// when a credit opens its gate (eval). Both run after the NIC's own eval
  /// (registration order), and each also wakes the NIC for now+1.
  void raise(NodeId node) {
    const auto n = static_cast<std::size_t>(node);
    ready_[n / 64] |= std::uint64_t{1} << (n % 64);
  }

  /// Packets fully ejected so far (records kept in ejection order).
  const std::vector<PacketRecord>& records() const { return records_; }
  /// Drops accumulated records (e.g. after warmup).
  void clear_records() { records_.clear(); }

  /// Flits waiting in source queues (offered-but-not-injected backlog).
  std::int64_t queued_flits() const { return queued_flits_; }
  /// Packets created / injected / ejected since construction.
  std::int64_t packets_created() const { return packets_created_; }
  std::int64_t packets_ejected() const { return packets_ejected_; }
  /// Measured packets fully ejected (drain detection for the runner).
  std::int64_t measured_ejected() const { return measured_ejected_; }
  std::int64_t flits_injected() const { return flits_injected_; }
  std::int64_t flits_ejected() const { return flits_ejected_; }
  /// Packets in flight (created but not fully ejected).
  std::int64_t packets_in_flight() const {
    return packets_created_ - packets_ejected_;
  }

 private:
  /// A queued packet: what its flits share.
  struct QueuedPacket {
    PacketId id = -1;
    Cycle created = 0;
    NodeId dst = kInvalidId;
    RouterId dst_router = kInvalidId;
    std::uint32_t flit_bits = 0;
    std::int16_t size = 1;     ///< flits
    std::int8_t vc_class = 0;  ///< first-hop class
    bool measured = false;
  };
  static_assert(sizeof(QueuedPacket) == 32);

  struct Port {
    OutputEndpoint* inject = nullptr;
    InputEndpoint* eject = nullptr;
    std::deque<QueuedPacket> queue;
    std::int16_t next_seq = 0;  ///< next flit of the front packet
    VcId open_vc = kInvalidId;  ///< VC of the packet currently injecting
    Cycle head_injected = 0;    ///< when the front packet's head went out
  };

  /// One port's injection step then ejection step, as `eval` visits it.
  void visit(NodeId node, Cycle now);

  std::vector<Port> ports_;
  std::vector<std::uint64_t> ready_;  ///< ready set, one bit per port
  std::vector<PacketRecord> records_;
  PacketId next_packet_ = 0;
  std::int64_t queued_flits_ = 0;
  std::int64_t packets_created_ = 0;
  std::int64_t packets_ejected_ = 0;
  std::int64_t measured_ejected_ = 0;
  std::int64_t flits_injected_ = 0;
  std::int64_t flits_ejected_ = 0;
};

}  // namespace ownsim
