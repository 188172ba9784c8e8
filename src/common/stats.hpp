// Streaming statistics accumulators.
//
// `RunningStat` keeps count/mean/min/max in O(1) memory (Welford's running
// mean). `Histogram` keeps a fixed-width binned distribution with overflow
// tracking so latency distributions can be reported without storing samples.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ownsim {

/// Single-pass mean/min/max accumulator (Welford's running mean).
class RunningStat {
 public:
  void add(double x);

  std::int64_t count() const { return count_; }
  double sum() const { return mean_ * static_cast<double>(count_); }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width histogram over [lo, hi) with `bins` buckets; samples outside
/// the range land in underflow/overflow counters. Percentiles are estimated
/// by linear interpolation within the containing bin.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  std::int64_t total() const { return total_; }
  std::int64_t underflow() const { return underflow_; }
  std::int64_t overflow() const { return overflow_; }
  const std::vector<std::int64_t>& counts() const { return counts_; }
  double bin_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }
  double bin_width() const { return width_; }

  /// Approximate p-quantile (q in [0,1]); returns range edges when the mass
  /// sits in under/overflow.
  double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::int64_t> counts_;
  std::int64_t underflow_ = 0;
  std::int64_t overflow_ = 0;
  std::int64_t total_ = 0;
};

}  // namespace ownsim
