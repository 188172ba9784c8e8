#include "network/spec.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

namespace ownsim {
namespace {

[[noreturn]] void fail(const std::string& network, const std::string& what) {
  throw std::runtime_error("NetworkSpec '" + network + "': " + what);
}

}  // namespace

void NetworkSpec::validate() const {
  const int nr = num_routers();
  if (nr == 0) fail(name, "no routers");
  if (static_cast<int>(nodes.size()) != num_nodes) {
    fail(name, "nodes.size() != num_nodes");
  }
  auto check_range = [this](const char* field, int value, int max) {
    if (value < 1 || value > max) {
      throw std::invalid_argument("NetworkSpec '" + name + "': " + field +
                                  " = " + std::to_string(value) +
                                  " outside [1, " + std::to_string(max) + "]");
    }
  };
  check_range("num_vcs", num_vcs, Router::kMaxVcs);
  check_range("buffer_depth", buffer_depth, kMaxBufferDepth);

  // VC classes must partition prefix ranges inside [0, num_vcs).
  if (vc_classes.empty()) fail(name, "no VC classes");
  for (const auto& cls : vc_classes) {
    if (cls.first < 0 || cls.count < 1 || cls.first + cls.count > num_vcs) {
      fail(name, "VC class out of range");
    }
  }

  for (const auto& attach : nodes) {
    if (attach.router < 0 || attach.router >= nr) {
      fail(name, "node attached to missing router");
    }
  }
  if (!router_xy.empty() && static_cast<int>(router_xy.size()) != nr) {
    fail(name, "router_xy size mismatch");
  }

  // Every network port must be driven/consumed by exactly one link or medium
  // endpoint.
  std::vector<std::vector<int>> out_used(static_cast<std::size_t>(nr));
  std::vector<std::vector<int>> in_used(static_cast<std::size_t>(nr));
  for (int r = 0; r < nr; ++r) {
    out_used[r].assign(static_cast<std::size_t>(routers[r].num_net_out), 0);
    in_used[r].assign(static_cast<std::size_t>(routers[r].num_net_in), 0);
  }
  auto use_out = [&](RouterId r, PortId p, const std::string& who) {
    if (r < 0 || r >= nr) fail(name, who + ": bad src router");
    if (p < 0 || p >= static_cast<PortId>(out_used[r].size())) {
      fail(name, who + ": src port out of range");
    }
    ++out_used[r][p];
  };
  auto use_in = [&](RouterId r, PortId p, const std::string& who) {
    if (r < 0 || r >= nr) fail(name, who + ": bad dst router");
    if (p < 0 || p >= static_cast<PortId>(in_used[r].size())) {
      fail(name, who + ": dst port out of range");
    }
    ++in_used[r][p];
  };
  for (const auto& link : links) {
    use_out(link.src_router, link.src_port, "link " + link.name);
    use_in(link.dst_router, link.dst_port, "link " + link.name);
    if (link.latency < 1 || link.cycles_per_flit < 1) {
      fail(name, "link " + link.name + ": latency/serialization must be >= 1");
    }
  }
  for (const auto& medium : media) {
    if (medium.writers.empty() || medium.readers.empty()) {
      fail(name, "medium " + medium.name + ": needs writers and readers");
    }
    if (medium.readers.size() > 1 && !medium.select_reader) {
      fail(name, "medium " + medium.name + ": select_reader required");
    }
    for (const auto& [r, p] : medium.writers) {
      use_out(r, p, "medium " + medium.name);
    }
    for (const auto& [r, p] : medium.readers) {
      use_in(r, p, "medium " + medium.name);
    }
  }
  for (int r = 0; r < nr; ++r) {
    for (std::size_t p = 0; p < out_used[r].size(); ++p) {
      if (out_used[r][p] != 1) {
        std::ostringstream os;
        os << "router " << r << " out port " << p << " wired "
           << out_used[r][p] << " times";
        fail(name, os.str());
      }
    }
    for (std::size_t p = 0; p < in_used[r].size(); ++p) {
      if (in_used[r][p] != 1) {
        std::ostringstream os;
        os << "router " << r << " in port " << p << " wired " << in_used[r][p]
           << " times";
        fail(name, os.str());
      }
    }
  }

  // Route table shape + targets.
  auto check_table = [&](const std::vector<std::vector<RouteEntry>>& table,
                         const char* which) {
    if (static_cast<int>(table.size()) != nr) {
      fail(name, std::string(which) + " has wrong router count");
    }
    for (int r = 0; r < nr; ++r) {
      if (static_cast<int>(table[r].size()) != nr) {
        fail(name, std::string(which) + " row has wrong size");
      }
      for (int d = 0; d < nr; ++d) {
        if (d == r) continue;
        const RouteEntry& e = table[r][d];
        if (e.out_port < 0 || e.out_port >= routers[r].num_net_out) {
          std::ostringstream os;
          os << which << " " << r << "->" << d << " uses bad out port "
             << e.out_port;
          fail(name, os.str());
        }
        if (e.vc_class < 0 ||
            e.vc_class >= static_cast<int>(vc_classes.size())) {
          fail(name, std::string(which) + " with bad vc_class");
        }
      }
    }
  };
  check_table(route_table, "route_table");
  if (has_alt_routing()) {
    check_table(route_table_alt, "route_table_alt");
    if (alt_min_class < 0 ||
        alt_min_class >= static_cast<int>(vc_classes.size())) {
      fail(name, "alt routing requires a valid alt_min_class");
    }
  }
}

}  // namespace ownsim
