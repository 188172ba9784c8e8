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
  for (int s = 0; s < size_flits; ++s) {
    Flit flit;
    flit.packet = id;
    flit.src = src;
    flit.dst = dst;
    flit.dst_router = dst_router;
    flit.head = (s == 0);
    flit.tail = (s == size_flits - 1);
    flit.seq = static_cast<std::int16_t>(s);
    flit.packet_size = static_cast<std::int16_t>(size_flits);
    flit.vc_class = static_cast<std::int8_t>(vc_class);
    flit.created = now;
    flit.measured = measured;
    flit.size_bits = flit_bits;
    port.queue.push_back(flit);
  }
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
    Flit& flit = port.queue.front();
    if (flit.head && port.open_vc == kInvalidId) {
      port.open_vc = port.inject->alloc_vc(flit.vc_class, now);
    }
    if (port.open_vc != kInvalidId) {
      flit.vc = port.open_vc;
      if (port.inject->gate().admits(flit.vc, now)) {
        if (flit.head) {
          // Stamp the whole packet (its flits are contiguous at the queue
          // front) so the tail flit carries the injection time to ejection.
          for (std::size_t k = 0;
               k < port.queue.size() && port.queue[k].packet == flit.packet;
               ++k) {
            port.queue[k].injected = now;
          }
        }
        const bool tail = flit.tail;
        port.inject->accept(flit, now);
        port.queue.pop_front();
        --queued_flits_;
        ++flits_injected_;
        if (tail) port.open_vc = kInvalidId;
        keep = !port.queue.empty();
      }
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
