#include "metrics/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ownsim {
namespace {

/// "1234" -> "1.2k", "1234567" -> "1.2M": compact cycle counts for one-line
/// telemetry output.
std::string compact_count(std::int64_t value) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  const double v = static_cast<double>(value);
  if (value >= 1000000000) {
    os << v / 1e9 << 'G';
  } else if (value >= 1000000) {
    os << v / 1e6 << 'M';
  } else if (value >= 1000) {
    os << v / 1e3 << 'k';
  } else {
    os << value;
  }
  return os.str();
}

}  // namespace

NetworkReport::NetworkReport(const Network& network) {
  elapsed_ = network.engine().now();
  if (elapsed_ <= 0) {
    throw std::logic_error("NetworkReport: network has not simulated yet");
  }
  const double cycles = static_cast<double>(elapsed_);

  channels_.reserve(network.num_network_channels() + network.num_media());
  for (std::size_t i = 0; i < network.num_network_channels(); ++i) {
    const Channel& channel = network.network_channel(i);
    ChannelUtilization util;
    util.name = channel.name();
    util.medium = channel.medium();
    util.shared = false;
    util.flits = channel.counters().flits;
    util.utilization = static_cast<double>(util.flits) /
                       (cycles / channel.cycles_per_flit());
    channels_.push_back(std::move(util));
  }
  for (std::size_t i = 0; i < network.num_media(); ++i) {
    const SharedMedium& medium = network.medium(i);
    ChannelUtilization util;
    util.name = medium.params().name;
    util.medium = medium.params().medium;
    util.shared = true;
    util.flits = medium.counters().flits;
    util.utilization = static_cast<double>(util.flits) /
                       (cycles / medium.params().cycles_per_flit);
    util.token_wait_share =
        static_cast<double>(medium.counters().token_wait_cycles) / cycles;
    channels_.push_back(std::move(util));
  }

  routers_.reserve(static_cast<std::size_t>(network.spec().num_routers()));
  for (RouterId r = 0; r < network.spec().num_routers(); ++r) {
    RouterActivity activity;
    activity.id = r;
    activity.crossbar_flits = network.router(r).counters().crossbar_flits;
    activity.crossbar_load =
        static_cast<double>(activity.crossbar_flits) / cycles;
    routers_.push_back(activity);
  }
}

const RouterActivity& NetworkReport::hottest_router() const {
  return *std::max_element(routers_.begin(), routers_.end(),
                           [](const auto& a, const auto& b) {
                             return a.crossbar_load < b.crossbar_load;
                           });
}

double NetworkReport::mean_utilization(MediumType medium) const {
  double sum = 0.0;
  int count = 0;
  for (const auto& channel : channels_) {
    if (channel.medium != medium) continue;
    sum += channel.utilization;
    ++count;
  }
  return count > 0 ? sum / count : 0.0;
}

double NetworkReport::max_utilization(MediumType medium) const {
  double max = 0.0;
  for (const auto& channel : channels_) {
    if (channel.medium == medium) max = std::max(max, channel.utilization);
  }
  return max;
}

void NetworkReport::write_channels_csv(std::ostream& os) const {
  os << "name,medium,shared,flits,utilization,token_wait_share\n";
  for (const auto& c : channels_) {
    os << c.name << ',' << to_string(c.medium) << ',' << (c.shared ? 1 : 0)
       << ',' << c.flits << ',' << c.utilization << ',' << c.token_wait_share
       << '\n';
  }
}

serve::Json NetworkReport::to_json() const {
  using serve::Json;
  Json::Array channels;
  channels.reserve(channels_.size());
  for (const ChannelUtilization& c : channels_) {
    Json::Object o;
    o["flits"] = Json(c.flits);
    o["medium"] = Json(to_string(c.medium));
    o["name"] = Json(c.name);
    o["shared"] = Json(c.shared);
    o["token_wait_share"] = Json(c.token_wait_share);
    o["utilization"] = Json(c.utilization);
    channels.push_back(Json(std::move(o)));
  }
  Json::Array routers;
  routers.reserve(routers_.size());
  for (const RouterActivity& r : routers_) {
    Json::Object o;
    o["crossbar_flits"] = Json(r.crossbar_flits);
    o["crossbar_load"] = Json(r.crossbar_load);
    o["id"] = Json(r.id);
    routers.push_back(Json(std::move(o)));
  }
  Json::Object o;
  o["channels"] = Json(std::move(channels));
  o["elapsed_cycles"] = Json(elapsed_);
  o["routers"] = Json(std::move(routers));
  return Json(std::move(o));
}

std::string sweep_telemetry_summary(const SweepTelemetry& telemetry) {
  std::ostringstream os;
  os << telemetry.points_run << " points";
  if (telemetry.points_cancelled > 0) {
    os << " (" << telemetry.points_cancelled << " cancelled)";
  }
  os << " on " << telemetry.threads
     << (telemetry.threads == 1 ? " thread: " : " threads: ")
     << compact_count(telemetry.cycles_simulated) << " cycles in "
     << std::fixed << std::setprecision(2) << telemetry.wall_seconds << " s";
  return os.str();
}

std::string run_profile_summary(const RunResult& result) {
  const RunProfile& p = result.profile;
  std::ostringstream os;
  os << compact_count(result.cycles_simulated) << " cycles in " << std::fixed
     << std::setprecision(2) << p.wall_seconds << " s ("
     << compact_count(static_cast<std::int64_t>(p.cycles_per_second))
     << " cycles/s)";
  if (p.peak_rss_bytes > 0) {
    os << ", peak RSS " << std::setprecision(1)
       << static_cast<double>(p.peak_rss_bytes) / (1024.0 * 1024.0) << " MB";
  }
  os << " [warmup " << std::setprecision(2) << p.warmup_seconds
     << " / measure " << p.measure_seconds << " / drain " << p.drain_seconds
     << " s]";
  return os.str();
}

serve::Json run_result_canonical_json(const RunResult& result) {
  using serve::Json;
  const Histogram& histogram = result.latency_histogram;
  // Sparse nonzero bins as [index, count] pairs: an ARRAY, not an object
  // with numeric-string keys, so the ascending-index order survives a parse
  // -> dump round trip (JSON object keys would re-sort lexicographically).
  Json::Array bins;
  for (std::size_t i = 0; i < histogram.counts().size(); ++i) {
    if (histogram.counts()[i] == 0) continue;
    bins.push_back(Json(Json::Array{Json(i), Json(histogram.counts()[i])}));
  }
  Json::Object latency_histogram;
  latency_histogram["bin_width"] = Json(histogram.bin_width());
  latency_histogram["bins"] = Json(std::move(bins));
  latency_histogram["lo"] = Json(histogram.bin_lo(0));
  latency_histogram["overflow"] = Json(histogram.overflow());
  latency_histogram["total"] = Json(histogram.total());
  latency_histogram["underflow"] = Json(histogram.underflow());

  Json::Object o;
  o["avg_hops"] = Json(result.avg_hops);
  o["avg_latency"] = Json(result.avg_latency);
  o["avg_net_latency"] = Json(result.avg_net_latency);
  o["cancelled"] = Json(result.cancelled);
  o["cycles_simulated"] = Json(result.cycles_simulated);
  o["drained"] = Json(result.drained);
  o["latency_histogram"] = Json(std::move(latency_histogram));
  o["max_latency"] = Json(result.max_latency);
  o["measured_packets"] = Json(result.measured_packets);
  o["offered_rate"] = Json(result.offered_rate);
  o["p50_latency"] = Json(result.p50_latency);
  o["p99_latency"] = Json(result.p99_latency);
  o["throughput"] = Json(result.throughput);
  return Json(std::move(o));
}

void append_run_result_canonical_json(std::string& out,
                                      const RunResult& result) {
  run_result_canonical_json(result).dump_to(out);
}

std::string sweep_progress_line(const SweepProgress& progress) {
  std::ostringstream os;
  os << '[' << std::setw(2) << progress.completed << '/' << progress.total
     << "] ";
  if (progress.rate < 0.0) {
    os << "zero-load probe";
  } else {
    os << "rate " << std::fixed << std::setprecision(4) << progress.rate;
  }
  os << "  " << compact_count(progress.cycles_simulated) << " cycles  "
     << std::fixed << std::setprecision(2) << progress.wall_seconds << " s";
  return os.str();
}

}  // namespace ownsim
