#include "network/router.hpp"

#include <bit>
#include <cassert>
#include <ostream>
#include <stdexcept>
#include <string>

namespace ownsim {

namespace {
/// Gate of an unwired output: admits nothing.
constexpr OutputGate kShutGate{kNeverCycle, ~std::uint64_t{0}};
}  // namespace

Router::Router(Params params, const std::vector<VcClassRange>* classes,
               const RoutingOracle* oracle)
    : params_(params), classes_(classes), oracle_(oracle) {
  if (params_.num_inputs < 1 || params_.num_outputs < 1) {
    throw std::invalid_argument("Router: needs >=1 input and output port");
  }
  if (params_.num_vcs < 1 || params_.num_vcs > kMaxVcs) {
    throw std::invalid_argument("Router: num_vcs must be in [1, 64]");
  }
  if (classes_ == nullptr || oracle_ == nullptr) {
    throw std::invalid_argument("Router: classes and oracle must not be null");
  }
  if (classes_->size() > static_cast<std::size_t>(kMaxVcs)) {
    throw std::invalid_argument("Router: at most 64 VC classes");
  }
  inputs_.resize(static_cast<std::size_t>(params_.num_inputs));
  for (auto& port : inputs_) {
    port.vcs.resize(static_cast<std::size_t>(params_.num_vcs));
    for (auto& vc : port.vcs) {
      vc.buffer = RingBuffer<Flit>(static_cast<std::size_t>(params_.buffer_depth));
    }
  }
  outputs_.resize(static_cast<std::size_t>(params_.num_outputs));
  for (auto& out : outputs_) out.gate = &kShutGate;
  sa_waited_.assign((outputs_.size() + 63) / 64, 0);
  sa_request_.assign(inputs_.size(), -1);
  sa_winners_.reserve(inputs_.size());
  grant_key_.assign(outputs_.size(), -1);
  grant_input_.assign(outputs_.size(), -1);
  granted_outputs_.reserve(outputs_.size());
}

void Router::bind_obs(obs::Registry& registry) {
  const std::string prefix = "router." + std::to_string(params_.id) + ".";
  obs_flits_forwarded_ = registry.counter(prefix + "flits_forwarded");
  obs_sa_retries_ = registry.counter(prefix + "sa_retries");
  obs_buffer_highwater_ = registry.gauge(prefix + "buffer_highwater");
}

void Router::connect_input(PortId port, InputEndpoint* endpoint) {
  auto& slot = inputs_.at(static_cast<std::size_t>(port)).endpoint;
  if (slot != nullptr) throw std::logic_error("Router: input port double-wired");
  slot = endpoint;
}

void Router::connect_output(PortId port, OutputEndpoint* endpoint) {
  auto& out = outputs_.at(static_cast<std::size_t>(port));
  if (out.endpoint != nullptr) {
    throw std::logic_error("Router: output port double-wired");
  }
  out.endpoint = endpoint;
  out.gate = &endpoint->gate();
}

void Router::eval(Cycle now) {
  // Activity kernel: the lockstep loop rotates vca_rr_ by num_vcs every
  // cycle unconditionally. Cycles skipped while dormant are caught up in
  // closed form so VCA arbitration stays bit-identical to lockstep. Gated on
  // scheduled(): manually driven routers (unit tests) keep per-call
  // semantics, and under a lockstep engine the gap is always zero.
  if (scheduled()) {
    const Cycle gap = now - last_eval_ - 1;
    if (gap > 0) {
      const int total = static_cast<int>(inputs_.size()) * params_.num_vcs;
      const Cycle advance =
          (vca_rr_ + static_cast<Cycle>(params_.num_vcs) * gap) %
          std::max(1, total);
      vca_rr_ = static_cast<int>(advance);
    }
    last_eval_ = now;
  }
  // Order implements pipelining: SA consumes last cycle's VCA grants, VCA
  // consumes last cycle's RC results, and so on. Intake runs first so an
  // arriving head is detected the same cycle and enters RC the next.
  stage_intake(now);
  stage_switch(now);
  stage_vca(now);
  stage_rc();
  // Detect, after RC: the idle VCs that intake or a tail pop left holding a
  // head start RC next cycle.
  for (auto& port : inputs_) {
    for (std::uint64_t m = port.detect; m != 0; m &= m - 1) {
      auto& vc = port.vcs[static_cast<std::size_t>(std::countr_zero(m))];
      assert(vc.buffer.front().head && "body flit at idle VC head");
      vc.state = VcState::kRouting;
    }
    port.routing |= port.detect;
    port.detect = 0;
  }
  if (event_driven()) plan_sleep(now);
  assert(masks_match_states());
}

void Router::plan_sleep(Cycle now) {
  // Arrivals wake the router (sink wakes), so only the buffered flits
  // decide: the next eval is a no-op unless RC, VCA or SA can act on one.
  // Parked VCs cannot act. Every unparked VCA VC may be granted: stage_vca
  // left none behind, and stage_rc parked each new one that cannot.
  stalled_ = false;
  if (occupancy_ == 0) return;
  const Cycle next = now + 1;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    auto& port = inputs_[i];
    if ((port.routing | port.vca) != 0) return;
    for (std::uint64_t m = port.ready; m != 0; m &= m - 1) {
      const int v = std::countr_zero(m);
      const auto& vc = port.vcs[static_cast<std::size_t>(v)];
      auto& out = outputs_[static_cast<std::size_t>(vc.route.out_port)];
      const OutputGate& gate = *out.gate;
      // A closed bit opens only through the endpoint, which then wakes us.
      if (((gate.closed >> vc.out_vc) & 1) != 0) {
        park_sa(static_cast<int>(i), v);
        continue;
      }
      if (gate.free_at <= next) return;
      // Open but for its serialization slot (a multi-cycle flit or an
      // outage): the slot ends with time alone, so no endpoint announces
      // it. Wake at the slot end, once per slot and output. The flit is
      // still buffered then, so the wake never lands on a cycle lockstep
      // would idle through.
      if (out.slot_wake != gate.free_at) {
        out.slot_wake = gate.free_at;
        request_wake(gate.free_at);
      }
    }
  }
  stalled_ = true;
}

void Router::stage_intake(Cycle now) {
  // An input whose next arrival is later than now has nothing to poll.
  for (auto& port : inputs_) {
    if (port.endpoint == nullptr || now < port.endpoint->arrival_at()) {
      continue;
    }
    const Flit* flit = port.endpoint->poll(now);
    assert(flit != nullptr && "arrival_at promised a flit");
    auto& vc = port.vcs.at(static_cast<std::size_t>(flit->vc));
    assert(!vc.buffer.full() && "credit protocol violated");
    vc.buffer.push(*flit);
    // A parked VC stays parked: its lane is still closed.
    if (vc.state == VcState::kActive && (port.sa_parked & bit(flit->vc)) == 0) {
      port.ready |= bit(flit->vc);
    }
    if (vc.state == VcState::kIdle) port.detect |= bit(flit->vc);
    port.endpoint->pop(now);
    ++occupancy_;
    ++counters_.buffer_writes;
    obs_buffer_highwater_.observe_max(occupancy_);
  }
}

void Router::stage_switch(Cycle now) {
  unpark_reopened();
  // SA stage 1: each input nominates one ready VC whose output gate admits
  // its flit, from rr_vc up, then below it (the order of `ready` rotated
  // right by rr_vc). A VC it finds on a closed lane parks; one waiting only
  // for its serialization slot stays ready.
  sa_winners_.clear();
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    auto& port = inputs_[i];
    sa_request_[i] = -1;
    for (std::uint64_t m = std::rotr(port.ready, port.rr_vc); m != 0;
         m &= m - 1) {
      const int v = (std::countr_zero(m) + port.rr_vc) & (kMaxVcs - 1);
      const auto& vc = port.vcs[static_cast<std::size_t>(v)];
      const OutputGate& gate =
          *outputs_[static_cast<std::size_t>(vc.route.out_port)].gate;
      if (((gate.closed >> vc.out_vc) & 1) != 0) {
        park_sa(static_cast<int>(i), v);
      } else if (now >= gate.free_at) {
        sa_request_[i] = v;
        sa_winners_.push_back(static_cast<int>(i));
        break;
      }
    }
  }

  // SA stage 2: each contended output grants the requesting input with the
  // smallest round-robin distance from its pointer (equivalent to scanning
  // inputs from rr_input, but O(#requests) instead of O(inputs x outputs)).
  const int n_in = static_cast<int>(inputs_.size());
  for (int i : sa_winners_) {
    const int v = sa_request_[static_cast<std::size_t>(i)];
    const auto& vc =
        inputs_[static_cast<std::size_t>(i)].vcs[static_cast<std::size_t>(v)];
    const auto o = static_cast<std::size_t>(vc.route.out_port);
    const int rr = outputs_[o].rr_input;
    const int key = i < rr ? i - rr + n_in : i - rr;
    if (grant_key_[o] < 0) granted_outputs_.push_back(static_cast<int>(o));
    if (grant_key_[o] < 0 || key < grant_key_[o]) {
      grant_key_[o] = key;
      grant_input_[o] = i;
    }
  }

  // ST + LT launch for every granted (input, output) pair.
  for (const int o : granted_outputs_) {
    auto& out = outputs_[static_cast<std::size_t>(o)];
    const int i = grant_input_[static_cast<std::size_t>(o)];
    grant_key_[static_cast<std::size_t>(o)] = -1;
    auto& port = inputs_[static_cast<std::size_t>(i)];
    const int v = sa_request_[static_cast<std::size_t>(i)];
    auto& vc = port.vcs[static_cast<std::size_t>(v)];

    Flit flit = vc.buffer.pop();
    flit.vc = vc.out_vc;  // its input VC is v
    --occupancy_;
    ++flit.hops;
    out.endpoint->accept(flit, now);
    port.endpoint->push_credit(v, now);  // v: the VC it arrived on

    ++counters_.buffer_reads;
    ++counters_.crossbar_flits;
    counters_.crossbar_bits += flit.size_bits;
    ++counters_.switch_allocations;
    obs_flits_forwarded_.inc();

    port.rr_vc = v + 1 == params_.num_vcs ? 0 : v + 1;
    out.rr_input = i + 1 == n_in ? 0 : i + 1;

    if (flit.tail || vc.buffer.empty()) port.ready &= ~bit(v);
    if (flit.tail) {
      out.refused = 0;  // the endpoint may have freed a VC of any class
      unpark_vca(static_cast<std::size_t>(o));
      vc.state = VcState::kIdle;
      vc.out_vc = kInvalidId;
      if (!vc.buffer.empty()) port.detect |= bit(v);
    }
  }
  // Inputs that nominated a VC this cycle but lost stage-2 arbitration
  // retry next cycle — the switch-contention signal.
  obs_sa_retries_.add(static_cast<std::int64_t>(sa_winners_.size()) -
                      static_cast<std::int64_t>(granted_outputs_.size()));
  granted_outputs_.clear();
}

void Router::stage_vca(Cycle now) {
  // Separable VCA: walk the flat (input, VC) slots from a rotating offset;
  // each requester asks its output endpoint for a downstream VC of the
  // packet's class. Endpoints grant first-come within a cycle, so the
  // rotation provides fairness across ports. vca_rr_ moves a whole input
  // (num_vcs slots) a cycle, so the walk is input i0's VCs, then the next's.
  // A class an output refused is not asked again until a tail leaves there
  // (OutputPort::refused): the endpoint would refuse it every time. Such a
  // requester parks, so the walk leaves `vca` empty.
  const int n_in = static_cast<int>(inputs_.size());
  const int i0 = vca_rr_ / params_.num_vcs;
  assert(vca_rr_ == i0 * params_.num_vcs);
  for (int i = i0, k = 0; k < n_in; ++k, i = i + 1 == n_in ? 0 : i + 1) {
    auto& port = inputs_[static_cast<std::size_t>(i)];
    for (std::uint64_t m = port.vca; m != 0; m &= m - 1) {
      const int v = std::countr_zero(m);
      auto& vc = port.vcs[static_cast<std::size_t>(v)];
      auto& out = outputs_[static_cast<std::size_t>(vc.route.out_port)];
      const int c = vc.route.vc_class;
      assert(c >= 0 && c < kMaxVcs && "VC class outside the refused mask");
      assert(out.endpoint != nullptr && "RC parks heads for unwired outputs");
      if ((out.refused & bit(c)) != 0) {
        park_vca(i, v);
        continue;
      }
      const VcId granted = out.endpoint->alloc_vc(c, now);
      if (granted == kInvalidId) {
        out.refused |= bit(c);
        park_vca(i, v);
        continue;
      }
      vc.out_vc = granted;
      vc.state = VcState::kActive;
      port.vca &= ~bit(v);
      port.ready |= bit(v);
      ++counters_.vc_allocations;
    }
  }
  vca_rr_ += params_.num_vcs;
  if (vca_rr_ == n_in * params_.num_vcs) vca_rr_ = 0;
}

void Router::stage_rc() {
  // A head routed to an unwired output or a refused class parks at once.
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    auto& port = inputs_[i];
    port.vca |= port.routing;
    for (std::uint64_t m = port.routing; m != 0; m &= m - 1) {
      const int v = std::countr_zero(m);
      auto& vc = port.vcs[static_cast<std::size_t>(v)];
      assert(!vc.buffer.empty() && vc.buffer.front().head);
      Flit& head = vc.buffer.front();
      vc.route = oracle_->route(params_.id, head);
      assert(vc.route.out_port >= 0 &&
             vc.route.out_port < static_cast<PortId>(outputs_.size()));
      head.vc_class = vc.route.vc_class;
      vc.state = VcState::kVca;
      ++counters_.route_computations;
      const auto& out = outputs_[static_cast<std::size_t>(vc.route.out_port)];
      if (out.endpoint == nullptr ||
          (out.refused & bit(vc.route.vc_class)) != 0) {
        park_vca(static_cast<int>(i), v);
      }
    }
    port.routing = 0;
  }
}

void Router::park_vca(int i, int v) {
  auto& port = inputs_[static_cast<std::size_t>(i)];
  auto& vc = port.vcs[static_cast<std::size_t>(v)];
  auto& out = outputs_[static_cast<std::size_t>(vc.route.out_port)];
  port.vca &= ~bit(v);
  port.vca_parked |= bit(v);
  vc.next_waiter = out.vca_waiters;
  out.vca_waiters = waiter_id(i, v);
}

void Router::park_sa(int i, int v) {
  auto& port = inputs_[static_cast<std::size_t>(i)];
  auto& vc = port.vcs[static_cast<std::size_t>(v)];
  const auto o = static_cast<std::size_t>(vc.route.out_port);
  auto& out = outputs_[o];
  port.ready &= ~bit(v);
  port.sa_parked |= bit(v);
  vc.next_waiter = out.sa_waiters;
  out.sa_waiters = waiter_id(i, v);
  out.sa_lanes |= bit(vc.out_vc);
  sa_waited_[o / 64] |= bit(static_cast<int>(o % 64));
}

void Router::unpark_vca(std::size_t o) {
  auto& out = outputs_[o];
  for (int id = out.vca_waiters; id >= 0;) {
    auto& port = inputs_[static_cast<std::size_t>(id / kMaxVcs)];
    const int v = id % kMaxVcs;
    auto& vc = port.vcs[static_cast<std::size_t>(v)];
    id = vc.next_waiter;
    vc.next_waiter = -1;
    port.vca_parked &= ~bit(v);
    port.vca |= bit(v);
  }
  out.vca_waiters = -1;
}

void Router::unpark_reopened() {
  // Exact because a closed lane opens only in its endpoint's own eval, never
  // inside this one (endpoints.hpp): a waiter is back before SA reads the
  // gate it would admit through.
  for (std::size_t w = 0; w < sa_waited_.size(); ++w) {
    for (std::uint64_t m = sa_waited_[w]; m != 0; m &= m - 1) {
      const int b = std::countr_zero(m);
      const std::size_t o = w * 64 + static_cast<std::size_t>(b);
      auto& out = outputs_[o];
      const std::uint64_t closed = out.gate->closed;
      if ((out.sa_lanes & ~closed) == 0) continue;
      std::uint64_t lanes = 0;
      for (int* link = &out.sa_waiters; *link >= 0;) {
        auto& port = inputs_[static_cast<std::size_t>(*link / kMaxVcs)];
        const int v = *link % kMaxVcs;
        auto& vc = port.vcs[static_cast<std::size_t>(v)];
        if (((closed >> vc.out_vc) & 1) != 0) {
          lanes |= bit(vc.out_vc);
          link = &vc.next_waiter;
          continue;
        }
        *link = vc.next_waiter;
        vc.next_waiter = -1;
        port.sa_parked &= ~bit(v);
        port.ready |= bit(v);
      }
      out.sa_lanes = lanes;
      if (out.sa_waiters < 0) sa_waited_[w] &= ~bit(b);
    }
  }
}

void Router::dump_state(std::ostream& os) const {
  static const char* kStateNames[] = {"IDLE", "ROUTING", "VCA", "ACTIVE"};
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const auto& port = inputs_[i];
    for (std::size_t v = 0; v < port.vcs.size(); ++v) {
      const auto& vc = port.vcs[v];
      if (vc.state == VcState::kIdle && vc.buffer.empty()) continue;
      os << "router " << params_.id << " in" << i << " vc" << v << " state="
         << kStateNames[static_cast<int>(vc.state)] << " buffered="
         << vc.buffer.size();
      if (!vc.buffer.empty()) {
        const Flit& f = vc.buffer.front();
        os << " front={pkt=" << f.packet << " seq=" << f.seq
           << (f.head ? " H" : "") << (f.tail ? " T" : "") << " src=" << f.src
           << " dst=" << f.dst << " cls=" << static_cast<int>(f.vc_class)
           << "}";
      }
      os << " route.port=" << vc.route.out_port << " out_vc=" << vc.out_vc
         << '\n';
    }
  }
}

bool Router::masks_match_states() const {
  std::size_t parked = 0;
  for (const auto& port : inputs_) {
    std::uint64_t routing = 0, vca = 0, ready = 0;
    for (std::size_t v = 0; v < port.vcs.size(); ++v) {
      const auto& vc = port.vcs[v];
      const std::uint64_t b = bit(static_cast<int>(v));
      if (vc.state == VcState::kIdle && !vc.buffer.empty()) return false;
      if (vc.state == VcState::kRouting) routing |= b;
      if (vc.state == VcState::kVca) vca |= b;
      if (vc.state == VcState::kActive && !vc.buffer.empty()) ready |= b;
      // plan_sleep's premise: an unparked VCA VC may be granted.
      if ((port.vca & b) != 0) {
        const auto& out =
            outputs_[static_cast<std::size_t>(vc.route.out_port)];
        if (out.endpoint == nullptr ||
            (out.refused & bit(vc.route.vc_class)) != 0) {
          return false;
        }
      }
    }
    if (routing != port.routing || port.detect != 0) return false;
    if ((port.vca & port.vca_parked) != 0 ||
        (port.vca | port.vca_parked) != vca) {
      return false;
    }
    if ((port.ready & port.sa_parked) != 0 ||
        (port.ready | port.sa_parked) != ready) {
      return false;
    }
    parked += static_cast<std::size_t>(std::popcount(port.vca_parked) +
                                       std::popcount(port.sa_parked));
  }
  // Every parked VC sits in its output's list of its kind exactly once, and
  // still cannot act: its class is refused (or the output unwired), or its
  // lane is closed.
  std::vector<char> listed(inputs_.size() * kMaxVcs, 0);
  std::size_t entries = 0;
  for (std::size_t o = 0; o < outputs_.size(); ++o) {
    const auto& out = outputs_[o];
    for (const bool sa : {false, true}) {
      for (int id = sa ? out.sa_waiters : out.vca_waiters; id >= 0;) {
        if (++entries > parked || listed[static_cast<std::size_t>(id)] != 0) {
          return false;
        }
        listed[static_cast<std::size_t>(id)] = 1;
        const auto& port = inputs_[static_cast<std::size_t>(id / kMaxVcs)];
        const int v = id % kMaxVcs;
        const auto& vc = port.vcs[static_cast<std::size_t>(v)];
        if (vc.route.out_port != static_cast<PortId>(o)) return false;
        if (sa) {
          if ((port.sa_parked & bit(v)) == 0 ||
              (out.sa_lanes & bit(vc.out_vc)) == 0 ||
              ((out.gate->closed >> vc.out_vc) & 1) == 0) {
            return false;
          }
        } else if ((port.vca_parked & bit(v)) == 0 ||
                   (out.endpoint != nullptr &&
                    (out.refused & bit(vc.route.vc_class)) == 0)) {
          return false;
        }
        id = vc.next_waiter;
      }
    }
    const bool waited = ((sa_waited_[o / 64] >> (o % 64)) & 1) != 0;
    if (waited != (out.sa_waiters >= 0)) return false;
  }
  return entries == parked;
}

}  // namespace ownsim
