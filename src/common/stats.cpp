#include "common/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace ownsim {

void RunningStat::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (!(hi > lo) || bins == 0) {
    throw std::invalid_argument("Histogram: requires hi > lo and bins > 0");
  }
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto idx = static_cast<std::size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);  // guard fp edge at hi_
    ++counts_[idx];
  }
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (cum >= target && underflow_ > 0) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double c = static_cast<double>(counts_[i]);
    if (cum + c >= target && c > 0) {
      const double frac = (target - cum) / c;
      return bin_lo(i) + frac * width_;
    }
    cum += c;
  }
  return hi_;
}

}  // namespace ownsim
