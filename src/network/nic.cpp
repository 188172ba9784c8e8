#include "network/nic.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace ownsim {

Nic::Nic(int num_nodes) {
  if (num_nodes < 1) throw std::invalid_argument("Nic: num_nodes must be >= 1");
  ports_.resize(static_cast<std::size_t>(num_nodes));
  ready_.assign((static_cast<std::size_t>(num_nodes) + 63) / 64, 0);
}

void Nic::connect(NodeId node, OutputEndpoint* inject, InputEndpoint* eject) {
  auto& port = ports_.at(static_cast<std::size_t>(node));
  if (port.inject != nullptr || port.eject != nullptr) {
    throw std::logic_error("Nic: node double-wired");
  }
  port.inject = inject;
  port.eject = eject;
}

PacketId Nic::enqueue_packet(NodeId src, NodeId dst, RouterId dst_router,
                             int size_flits, std::uint32_t flit_bits,
                             int vc_class, Cycle now, bool measured) {
  assert(size_flits >= 1);
  auto& port = ports_.at(static_cast<std::size_t>(src));
  const PacketId id = next_packet_++;
  QueuedPacket packet;
  packet.id = id;
  packet.created = now;
  packet.dst = dst;
  packet.dst_router = dst_router;
  packet.flit_bits = flit_bits;
  packet.size = static_cast<std::int16_t>(size_flits);
  packet.vc_class = static_cast<std::int8_t>(vc_class);
  packet.measured = measured;
  port.queue.push_back(packet);
  queued_flits_ += size_flits;
  ++packets_created_;
  ready_[static_cast<std::size_t>(src) / 64] |= std::uint64_t{1} << (src % 64);
  // Callers enqueue either mid-eval (injectors) — where the NIC's eval slot
  // for `now` has already passed, so the engine clamps the wake to now+1
  // (matching lockstep: the NIC is registered before every traffic source)
  // — or between steps, where cycle `now` is still upcoming and the wake
  // lands on it.
  request_wake(now);
  return id;
}

void Nic::eval(Cycle now) {
  // Ascending port order over a snapshot of each word: a visit clears only
  // its own bit, and nothing enqueues while the NIC evaluates.
  for (std::size_t w = 0; w < ready_.size(); ++w) {
    for (std::uint64_t pending = ready_[w]; pending != 0;
         pending &= pending - 1) {
      const int bit = std::countr_zero(pending);
      visit(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(bit)), now);
    }
  }
}

void Nic::visit(NodeId node, Cycle now) {
  Port& port = ports_[static_cast<std::size_t>(node)];
  std::uint64_t& word = ready_[static_cast<std::size_t>(node) / 64];
  const std::uint64_t mask = std::uint64_t{1} << (node % 64);
  // ---- Injection: at most one flit per node per cycle. ---------------------
  // The node's inject channel is a one-cycle, one-flit-per-cycle pipe, so the
  // only refusal is a closed gate (no credit), and the channel raises the
  // port again when a credit opens it.
  bool keep = false;
  if (port.inject != nullptr && !port.queue.empty()) {
    const QueuedPacket& packet = port.queue.front();
    if (port.next_seq == 0 && port.open_vc == kInvalidId) {
      port.open_vc = port.inject->alloc_vc(packet.vc_class, now);
    }
    if (port.open_vc != kInvalidId &&
        port.inject->gate().admits(port.open_vc, now)) {
      // Every flit carries its head's injection time, so the tail brings it
      // to ejection.
      if (port.next_seq == 0) port.head_injected = now;
      Flit flit;
      flit.packet = packet.id;
      flit.src = node;
      flit.dst = packet.dst;
      flit.dst_router = packet.dst_router;
      flit.head = port.next_seq == 0;
      flit.tail = port.next_seq == packet.size - 1;
      flit.seq = port.next_seq;
      flit.packet_size = packet.size;
      flit.vc = port.open_vc;
      flit.vc_class = packet.vc_class;
      flit.created = packet.created;
      flit.injected = port.head_injected;
      flit.measured = packet.measured;
      flit.size_bits = packet.flit_bits;
      port.inject->accept(flit, now);
      --queued_flits_;
      ++flits_injected_;
      if (flit.tail) {
        port.queue.pop_front();
        port.next_seq = 0;
        port.open_vc = kInvalidId;
      } else {
        ++port.next_seq;
      }
      keep = !port.queue.empty();
    }
  }
  if (!keep) word &= ~mask;

  // ---- Ejection: at most one flit per node per cycle. ----------------------
  if (port.eject != nullptr) {
    const Flit* flit = port.eject->poll(now);
    if (flit != nullptr) {
      ++flits_ejected_;
      if (flit->tail) {
        PacketRecord rec;
        rec.packet = flit->packet;
        rec.src = flit->src;
        rec.dst = flit->dst;
        rec.created = flit->created;
        rec.injected = flit->injected;
        rec.ejected = now;
        rec.hops = flit->hops;
        rec.size_flits = flit->packet_size;
        rec.measured = flit->measured;
        records_.push_back(rec);
        ++packets_ejected_;
        if (rec.measured) ++measured_ejected_;
      }
      const VcId vc = flit->vc;
      port.eject->pop(now);
      port.eject->push_credit(vc, now);
    }
  }
}

}  // namespace ownsim
