#include "network/shared_medium.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

#include "fault/protocol.hpp"
#include "network/router.hpp"
#include "obs/trace.hpp"

namespace ownsim {

SharedMedium::SharedMedium(Params params, const std::vector<VcClassRange>* classes)
    : params_(std::move(params)), classes_(classes) {
  if (classes_ == nullptr) {
    throw std::invalid_argument("SharedMedium: classes must not be null");
  }
  if (classes_->size() > 64) {
    throw std::invalid_argument(
        "SharedMedium: at most 64 VC classes (one gate bit each)");
  }
  if (params_.num_writers < 1 || params_.num_readers < 1) {
    throw std::invalid_argument("SharedMedium: need >=1 writer and reader");
  }
  if (params_.latency < 1 || params_.cycles_per_flit < 1) {
    throw std::invalid_argument("SharedMedium: latency/serialization >= 1");
  }
  if (!params_.select_reader) {
    if (params_.num_readers == 1) {
      params_.select_reader = [](NodeId, RouterId) { return 0; };
    } else {
      throw std::invalid_argument(
          "SharedMedium: select_reader required with multiple readers");
    }
  }
  writers_.resize(static_cast<std::size_t>(params_.num_writers));
  int windex = 0;
  for (auto& w : writers_) {
    w.medium = this;
    w.index = windex++;
    w.per_class.resize(classes_->size());
    for (auto& cls : w.per_class) {
      cls.staging =
          RingBuffer<Flit>(static_cast<std::size_t>(params_.max_packet_flits));
    }
  }
  readers_.resize(static_cast<std::size_t>(params_.num_readers));
  int index = 0;
  for (auto& r : readers_) {
    r.medium = this;
    r.index = index++;
    r.credits.assign(static_cast<std::size_t>(params_.num_vcs),
                     params_.buffer_depth);
    r.vc_busy.assign(static_cast<std::size_t>(params_.num_vcs), false);
  }
  rr_vc_next_.assign(classes_->size(), 0);
  staged_writers_.assign((writers_.size() + 63) / 64, 0);
}

OutputEndpoint* SharedMedium::writer(int index) {
  return &writers_.at(static_cast<std::size_t>(index));
}

InputEndpoint* SharedMedium::reader(int index) {
  return &readers_.at(static_cast<std::size_t>(index));
}

void SharedMedium::bind_obs(obs::Registry& registry) {
  const std::string prefix = "medium." + params_.name + ".";
  obs_packets_ = registry.counter(prefix + "packets");
  obs_flits_ = registry.counter(prefix + "flits");
  obs_token_wait_ = registry.counter(prefix + "token_wait_cycles");
  obs_arb_retries_ = registry.counter(prefix + "arb_retries");
  obs_discards_ = registry.counter(prefix + "multicast_discard_flits");
}

void SharedMedium::set_trace(obs::TraceWriter* trace, int tid) {
  trace_ = trace;
  trace_tid_ = tid;
}

void SharedMedium::set_fault_model(const fault::Protocol* protocol, Rng rng,
                                   obs::Registry* registry) {
  fault_ = protocol;
  fault_rng_ = rng;
  if (registry != nullptr) {
    // Shared aggregate slots across all faulty channels and media
    // (registration is idempotent; see obs/counters.hpp).
    obs_crc_errors_ = registry->counter("fault.crc_errors");
    obs_retransmissions_ = registry->counter("fault.retransmissions");
    obs_token_recoveries_ = registry->counter("fault.token_recoveries");
  }
}

void SharedMedium::set_cycles_per_flit(int cycles_per_flit) {
  if (cycles_per_flit < 1) {
    throw std::invalid_argument(
        "SharedMedium: cycles_per_flit must be >= 1");
  }
  params_.cycles_per_flit = cycles_per_flit;
}

void SharedMedium::lose_token(Cycle now, Cycle recover_at) {
  if (params_.arbitration != ArbitrationKind::kTokenRing) {
    throw std::logic_error("SharedMedium::lose_token: medium has no token");
  }
  if (recover_at != kNeverCycle && recover_at <= now) {
    throw std::invalid_argument(
        "SharedMedium::lose_token: recovery must be in the future");
  }
  token_loss_pending_ = true;
  token_lost_until_ = recover_at;
}

// ---- Writer endpoint --------------------------------------------------------

VcId SharedMedium::Writer::alloc_vc(int vc_class, Cycle /*now*/) {
  // The medium assigns the real reader VC at transmission start; the sending
  // router only needs exclusivity over this writer port's class lane.
  ClassStaging& lane = per_class.at(static_cast<std::size_t>(vc_class));
  if (lane.packet_open) return kInvalidId;
  lane.packet_open = true;
  // Return the class id as a pseudo-VC; it rides along in flit.vc so both
  // this endpoint and the medium know the packet's lane.
  return static_cast<VcId>(vc_class);
}

bool SharedMedium::Writer::publish(int c) {
  // A head may enter only once the lane fully drained, so a lane never
  // interleaves packets; a body flit needs a free staging slot.
  const std::uint64_t b = std::uint64_t{1} << c;
  const bool was_closed = (gate_.closed & b) != 0;
  if (per_class[static_cast<std::size_t>(c)].closed()) {
    gate_.closed |= b;
    return false;
  }
  gate_.closed &= ~b;
  return was_closed;
}

void SharedMedium::Writer::accept(const Flit& flit, Cycle now) {
  assert(gate_.admits(flit.vc, now));
  (void)now;
  ClassStaging& lane = per_class[static_cast<std::size_t>(flit.vc)];
  if (lane.staged_in.empty()) medium->dirty_writers_.push_back(index);
  lane.staged_in.push_back(flit);
  ++lane.staged_count;
  lane.in_packet = !flit.tail;
  if (flit.tail) lane.packet_open = false;
  publish(flit.vc);
  // Latch this cycle even if the medium is dormant; the merged staging then
  // leaves it non-idle, so it arbitrates from now+1 — when a lockstep medium
  // would first see the flit too.
  medium->request_commit();
}

// ---- Reader endpoint --------------------------------------------------------

const Flit* SharedMedium::Reader::poll(Cycle now) {
  if (delivery.empty() || delivery.front().arrival > now) return nullptr;
  return &delivery.front().flit;
}

void SharedMedium::Reader::pop(Cycle /*now*/) {
  assert(!delivery.empty());
  delivery.pop_front();
  arrival_at_ = delivery.empty() ? kNeverCycle : delivery.front().arrival;
}

void SharedMedium::Reader::push_credit(VcId vc, Cycle now) {
  if (staged_credits.empty()) medium->dirty_readers_.push_back(index);
  staged_credits.push_back({vc, now + 1});
  // Latch this cycle. No wake: the commit ends any sleep the credit could
  // end, and every eval absorbs all credits due by then first.
  medium->request_commit();
}

// ---- Medium core ------------------------------------------------------------

bool SharedMedium::try_start(int w, Cycle now) {
  Writer& writer = writers_[static_cast<std::size_t>(w)];
  const int num_classes = static_cast<int>(writer.per_class.size());
  for (int k = 0; k < num_classes; ++k) {
    const int cls_idx = (writer.rr_class + k) % num_classes;
    ClassStaging& lane = writer.per_class[static_cast<std::size_t>(cls_idx)];
    if (lane.staging.empty()) continue;
    const Flit& head = lane.staging.front();
    assert(head.head && "SharedMedium lane must start with a head flit");

    const int reader_idx = params_.select_reader(head.dst, head.dst_router);
    Reader& reader = readers_.at(static_cast<std::size_t>(reader_idx));

    const VcClassRange& cls = classes_->at(static_cast<std::size_t>(cls_idx));
    int& rr = rr_vc_next_[static_cast<std::size_t>(cls_idx)];
    for (int i = 0; i < cls.count; ++i) {
      const VcId vc = cls.first + (rr + i) % cls.count;
      if (!reader.vc_busy[vc] && reader.credits[vc] > 0) {
        reader.vc_busy[vc] = true;
        rr = (rr + i + 1) % cls.count;
        active_ = true;
        active_writer_ = w;
        active_class_ = cls_idx;
        active_reader_ = reader_idx;
        active_vc_ = vc;
        // Serialization carries across packets: the bus is one physical
        // channel, so the next flit slot is whatever the previous
        // transmission left behind, never earlier.
        next_tx_slot_ = std::max(next_tx_slot_, now);
        writer.rr_class = (cls_idx + 1) % num_classes;
        ++counters_.packets;
        obs_packets_.inc();
        if (trace_ != nullptr) {
          active_start_ = now;
          trace_->instant("grant", "token", obs::TraceWriter::kPidMedia,
                          trace_tid_, now,
                          {{"writer", std::to_string(w)},
                           {"reader", std::to_string(reader_idx)},
                           {"vc", std::to_string(vc)}});
        }
        return true;
      }
    }
  }
  return false;
}

bool SharedMedium::can_start(int w) const {
  const Writer& writer = writers_[static_cast<std::size_t>(w)];
  for (std::size_t c = 0; c < writer.per_class.size(); ++c) {
    const ClassStaging& lane = writer.per_class[c];
    if (lane.staging.empty()) continue;
    const Flit& head = lane.staging.front();
    const Reader& reader = readers_.at(static_cast<std::size_t>(
        params_.select_reader(head.dst, head.dst_router)));
    const VcClassRange& cls = (*classes_)[c];
    for (VcId vc = cls.first; vc < cls.first + cls.count; ++vc) {
      if (!reader.vc_busy[vc] && reader.credits[vc] > 0) return true;
    }
  }
  return false;
}

template <typename Pred>
int SharedMedium::first_staged(int from, Pred&& pred) const {
  // Token order from `from`: the bits of from's word at and above it, the
  // later words, the earlier words, then the bits of from's word below it.
  const std::size_t words = staged_writers_.size();
  const std::size_t first = static_cast<std::size_t>(from) / 64;
  const std::uint64_t high = ~std::uint64_t{0} << (from % 64);
  for (std::size_t k = 0; k <= words; ++k) {
    const std::size_t w = (first + k) % words;
    std::uint64_t bits = staged_writers_[w];
    if (k == 0) bits &= high;
    if (k == words) bits &= ~high;
    for (; bits != 0; bits &= bits - 1) {
      const int writer = static_cast<int>(w * 64) + std::countr_zero(bits);
      if (pred(writer)) return writer;
    }
  }
  return -1;
}

bool SharedMedium::any_staged() const {
  return std::any_of(staged_writers_.begin(), staged_writers_.end(),
                     [](std::uint64_t word) { return word != 0; });
}

bool SharedMedium::gates_match_state(int w) const {
  const Writer& writer = writers_[static_cast<std::size_t>(w)];
  std::uint64_t closed = 0;
  bool staged_lane = false;
  for (std::size_t c = 0; c < writer.per_class.size(); ++c) {
    const ClassStaging& lane = writer.per_class[c];
    if (lane.staged_count !=
        static_cast<int>(lane.staging.size() + lane.staged_in.size())) {
      return false;
    }
    if (lane.closed()) closed |= std::uint64_t{1} << c;
    if (!lane.staging.empty()) staged_lane = true;
  }
  const std::uint64_t word = staged_writers_[static_cast<std::size_t>(w) / 64];
  const bool staged = ((word >> (w % 64)) & 1) != 0;
  if (writer.gate().closed != closed || writer.gate().free_at != 0 ||
      staged != staged_lane) {
    return false;
  }
  for (const Reader& reader : readers_) {
    const Cycle arrival = reader.delivery.empty()
                              ? kNeverCycle
                              : reader.delivery.front().arrival;
    if (reader.arrival_at() != arrival) return false;
  }
  return true;
}

void SharedMedium::catch_up(Cycle through) {
  const Cycle gap = through - last_eval_;
  last_eval_ = through;
  // Each skipped cycle without a transmission failed try_start (plan_sleep
  // guarantees it) and moved the token one writer; with heads staged it was
  // also a token wait and an arbitration retry. Ideal arbitration and an
  // active transmission change nothing on such cycles.
  if (gap <= 0 || active_ ||
      params_.arbitration != ArbitrationKind::kTokenRing) {
    return;
  }
  token_ = static_cast<int>((token_ + gap % params_.num_writers) %
                            params_.num_writers);
  if (sleep_ == Sleep::kTokenWait) {
    counters_.token_wait_cycles += gap;
    obs_token_wait_.add(gap);
    obs_arb_retries_.add(gap);
  }
}

void SharedMedium::settle(Cycle through) {
  if (event_driven()) catch_up(through);
}

void SharedMedium::plan_sleep(Cycle now) {
  sleep_ = Sleep::kAwake;
  if (token_loss_pending_) return;
  if (active_) {
    const ClassStaging& lane =
        writers_[static_cast<std::size_t>(active_writer_)]
            .per_class[static_cast<std::size_t>(active_class_)];
    if (lane.staging.empty() ||
        readers_[static_cast<std::size_t>(active_reader_)]
                .credits[active_vc_] == 0) {
      sleep_ = Sleep::kBlocked;
    } else if (next_tx_slot_ > now + 1) {
      sleep_ = Sleep::kSlot;
      request_wake(next_tx_slot_);
    }
    return;
  }
  if (!any_staged()) {
    sleep_ = Sleep::kEmpty;
    return;
  }
  // Distance from the next cycle's token holder to the first writer that
  // can start. Ideal arbitration grants any of them at once.
  const int first =
      first_staged(token_, [this](int w) { return can_start(w); });
  const int distance =
      first < 0 ? -1
                : (first - token_ + params_.num_writers) % params_.num_writers;
  if (distance == 0) return;
  if (params_.arbitration == ArbitrationKind::kIdeal) {
    if (distance < 0) sleep_ = Sleep::kBlocked;
    return;
  }
  sleep_ = Sleep::kTokenWait;
  if (distance > 0) request_wake(now + 1 + distance);
}

void SharedMedium::eval(Cycle now) {
  // 0. Catch-up (activity kernel) for the cycles skipped while
  //    dormant. Gated on event_driven(): manually driven media (unit tests)
  //    keep per-call semantics, and under lockstep the gap is always 0.
  if (event_driven()) catch_up(now - 1);
  last_eval_ = now;

  // 0b. Token-loss recovery: the MAC regenerates the token at writer 0 once
  //     the recovery protocol completes. Runs before arbitration so the
  //     recovery cycle itself can grant — identically in both kernels, since
  //     a pending loss forces per-cycle evals (is_idle is false).
  if (token_loss_pending_ && token_lost_until_ != kNeverCycle &&
      now >= token_lost_until_) {
    token_loss_pending_ = false;
    token_ = 0;
    ++counters_.token_recoveries;
    obs_token_recoveries_.inc();
  }

  // 1. Absorb credits returned by reader routers (1-cycle reverse latency).
  for (auto& reader : readers_) {
    while (!reader.credit_pipe.empty() &&
           reader.credit_pipe.front().arrival <= now) {
      ++reader.credits[reader.credit_pipe.front().vc];
      reader.credit_pipe.pop_front();
    }
  }

  // 2. Drive the active transmission: one flit per `cycles_per_flit`,
  //    stalling (token held) when the writer hasn't staged the next flit yet
  //    or the reader is out of credits.
  if (active_) {
    Writer& writer = writers_[static_cast<std::size_t>(active_writer_)];
    ClassStaging& lane =
        writer.per_class[static_cast<std::size_t>(active_class_)];
    Reader& reader = readers_[static_cast<std::size_t>(active_reader_)];
    if (now >= next_tx_slot_ && !lane.staging.empty() &&
        reader.credits[active_vc_] > 0) {
      Flit flit = lane.staging.pop();
      --lane.staged_count;
      const auto drained = [](const ClassStaging& c) {
        return c.staging.empty();
      };
      if (lane.staging.empty() &&
          std::all_of(writer.per_class.begin(), writer.per_class.end(),
                      drained)) {
        const std::uint64_t bit = std::uint64_t{1} << (active_writer_ % 64);
        staged_writers_[static_cast<std::size_t>(active_writer_) / 64] &= ~bit;
      }
      // The freed slot may open the lane to the writer's next flit (a head
      // only once the lane drains). Same t+1 argument as a channel credit.
      if (writer.publish(active_class_) && writer.source != nullptr &&
          writer.source->stalled()) {
        writer.source->request_wake(now + 1);
      }
      flit.vc = active_vc_;
      // Fault model: the copy may corrupt in transit; the writer retries
      // while holding the token (bus occupied through the NACK round trips),
      // so both the arrival and the next transmit slot slide by the summed
      // backoff. After max_attempts the reception is forced clean — a noisy
      // medium only costs latency, never a flit.
      Cycle retry_delay = 0;
      if (fault_ != nullptr) {
        const double p_flit =
            live_ber_ >= 0.0 ? fault::flit_error_rate(live_ber_, flit.size_bits)
                             : fault_->flit_error_rate(flit.size_bits);
        int attempt = 0;
        while (attempt < fault_->max_attempts &&
               fault_rng_.uniform() < p_flit) {
          retry_delay += fault_->backoff_delay(attempt);
          ++attempt;
        }
        if (attempt > 0) {
          counters_.crc_errors += attempt;
          counters_.retransmissions += attempt;
          obs_crc_errors_.add(attempt);
          obs_retransmissions_.add(attempt);
        }
      }
      const Cycle arrival = now + retry_delay + params_.latency;
      reader.delivery.push_back({flit, arrival});
      if (reader.delivery.size() == 1) reader.set_arrival_at(arrival);
      if (reader.sink != nullptr) {
        reader.sink->request_wake(arrival);
      }
      --reader.credits[active_vc_];
      next_tx_slot_ = now + retry_delay + params_.cycles_per_flit;
      ++counters_.flits;
      counters_.tx_bits += flit.size_bits;
      counters_.rx_bits += static_cast<std::int64_t>(flit.size_bits) *
                           (params_.multicast_rx ? params_.num_readers : 1);
      obs_flits_.inc();
      if (params_.multicast_rx) {
        // Every listening reader pays RX energy; all but the target throw
        // the copy away (Table II's SWMR discard path).
        counters_.multicast_discard_flits += params_.num_readers - 1;
        obs_discards_.add(params_.num_readers - 1);
      }
      if (flit.tail) {
        // Release: the reader VC frees at tail launch; deliveries are FIFO
        // per reader, so a follow-up packet on the same VC cannot overtake.
        reader.vc_busy[active_vc_] = false;
        active_ = false;
        // A lost token cannot be passed on; it reappears at writer 0 at
        // recovery (see eval step 0b).
        if (!token_loss_pending_) {
          token_ = (token_ + 1) % params_.num_writers;
        }
        if (trace_ != nullptr) {
          trace_->complete(
              "pkt w" + std::to_string(active_writer_) + "->r" +
                  std::to_string(active_reader_),
              "medium", obs::TraceWriter::kPidMedia, trace_tid_, active_start_,
              now + params_.cycles_per_flit - active_start_);
        }
      }
    }
  } else if (params_.arbitration == ArbitrationKind::kTokenRing) {
    // 3a. Token arbitration: the current holder starts if it has a complete
    //     head staged and a reader VC is available; otherwise the token
    //     moves one writer per cycle (this is the "few extra cycles" of
    //     token transfer the paper charges against OptXB throughput).
    //     While the token is lost there is no holder and no rotation —
    //     staged packets just accrue token-wait cycles.
    const bool heads_staged = any_staged();
    if (!token_loss_pending_ && !try_start(token_, now)) {
      token_ = (token_ + 1) % params_.num_writers;
      // A staged head exists but this cycle's holder could not launch it:
      // the token moves on and the packet retries under a later holder.
      if (heads_staged) obs_arb_retries_.inc();
    }
    // "Some packet is waiting for the token" cycles, not per-writer.
    if (heads_staged) {
      ++counters_.token_wait_cycles;
      obs_token_wait_.inc();
    }
  } else {
    // 3b. Ideal arbitration: grant the first pending writer round-robin
    //     from the pointer, all in one cycle.
    const int writer =
        first_staged(token_, [&](int w) { return try_start(w, now); });
    if (writer >= 0) token_ = writer;  // tail launch advances past it
  }
  if (event_driven()) plan_sleep(now);
  assert(gates_match_state(active_writer_));  // the only writer popped
}

void SharedMedium::commit(Cycle now) {
  // Latched staging ends every sleep but the slot wait (its lane already
  // holds the next flit); latched credits end the sleeps that may wait for
  // one. Cycles through `now` saw the state before this latch, so they are
  // caught up first; the engine then evaluates the medium from now+1.
  if (sleep_ != Sleep::kAwake && sleep_ != Sleep::kSlot &&
      (!dirty_writers_.empty() ||
       (!dirty_readers_.empty() && sleep_ != Sleep::kEmpty))) {
    catch_up(now);
    sleep_ = Sleep::kAwake;
  }
  for (const int w : dirty_writers_) {
    Writer& writer = writers_[static_cast<std::size_t>(w)];
    for (auto& lane : writer.per_class) {
      if (lane.staged_in.empty()) continue;
      const std::uint64_t bit = std::uint64_t{1} << (w % 64);
      staged_writers_[static_cast<std::size_t>(w) / 64] |= bit;
      for (auto& flit : lane.staged_in) lane.staging.push(flit);
      lane.staged_in.clear();
    }
    assert(gates_match_state(w));  // every writer that accepted this cycle
  }
  dirty_writers_.clear();
  for (const int r : dirty_readers_) {
    Reader& reader = readers_[static_cast<std::size_t>(r)];
    for (const auto& credit : reader.staged_credits) {
      reader.credit_pipe.push_back(credit);
    }
    reader.staged_credits.clear();
  }
  dirty_readers_.clear();
  assert(gates_match_state(active_writer_));
}

}  // namespace ownsim
