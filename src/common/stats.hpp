// Lightweight statistics registry used by the pipeline and schemes.
//
// A StatSet owns named counters and scalar gauges; Histogram provides
// bucketed distributions (e.g. dependence distances, replay penalties).
#ifndef VASIM_COMMON_STATS_HPP
#define VASIM_COMMON_STATS_HPP

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "src/common/types.hpp"

namespace vasim {

/// Named monotonic counters plus named floating-point scalars.
class StatSet {
 public:
  /// Adds `delta` to counter `name` (creates it at zero on first use).
  void inc(const std::string& name, u64 delta = 1) { counters_[name] += delta; }

  /// Sets scalar `name` to `value`.
  void set(const std::string& name, double value) { scalars_[name] = value; }

  /// Counter value; zero when never incremented.
  [[nodiscard]] u64 count(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Scalar value; zero when never set.
  [[nodiscard]] double scalar(const std::string& name) const {
    auto it = scalars_.find(name);
    return it == scalars_.end() ? 0.0 : it->second;
  }

  [[nodiscard]] const std::map<std::string, u64>& counters() const { return counters_; }
  [[nodiscard]] const std::map<std::string, double>& scalars() const { return scalars_; }

  void clear() {
    counters_.clear();
    scalars_.clear();
  }

  /// Counter-wise difference (this - base); scalars keep this object's
  /// values.  Used to exclude a warmup window from measurements.
  [[nodiscard]] StatSet diff(const StatSet& base) const;

  /// Multi-line "name = value" dump, sorted by name.
  [[nodiscard]] std::string to_string() const;

 private:
  std::map<std::string, u64> counters_;
  std::map<std::string, double> scalars_;
};

/// Fixed-width-bucket histogram over [lo, hi) with under/overflow bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double value, u64 weight = 1);

  [[nodiscard]] u64 total() const { return total_; }
  [[nodiscard]] double mean() const { return total_ ? sum_ / static_cast<double>(total_) : 0.0; }
  [[nodiscard]] double min() const { return total_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return total_ ? max_ : 0.0; }
  /// Approximate quantile from bucket interpolation, q in [0,1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] const std::vector<u64>& buckets() const { return counts_; }
  [[nodiscard]] double bucket_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<u64> counts_;
  u64 underflow_ = 0;
  u64 overflow_ = 0;
  u64 total_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Running mean/stddev accumulator (Welford).
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }
  [[nodiscard]] u64 n() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  u64 n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace vasim

#endif  // VASIM_COMMON_STATS_HPP
