#include "src/common/stats.hpp"

#include <sstream>

namespace vasim {

std::string StatSet::to_string() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters_) os << name << " = " << value << '\n';
  for (const auto& [name, value] : scalars_) os << name << " = " << value << '\n';
  return os.str();
}

StatSet StatSet::diff(const StatSet& base) const {
  StatSet out;
  for (const auto& [name, value] : counters_) {
    const u64 b = base.count(name);
    out.inc(name, value >= b ? value - b : 0);
  }
  for (const auto& [name, value] : scalars_) out.set(name, value);
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets == 0 ? 1 : buckets)),
      counts_(buckets == 0 ? 1 : buckets, 0) {}

void Histogram::add(double value, u64 weight) {
  if (weight == 0) return;
  if (total_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  total_ += weight;
  sum_ += value * static_cast<double>(weight);
  if (value < lo_) {
    underflow_ += weight;
  } else if (value >= hi_) {
    overflow_ += weight;
  } else {
    auto idx = static_cast<std::size_t>((value - lo_) / width_);
    if (idx >= counts_.size()) idx = counts_.size() - 1;
    counts_[idx] += weight;
  }
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (cum >= target && underflow_ > 0) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return bucket_lo(i) + frac * width_;
    }
    cum = next;
  }
  return max_;
}

}  // namespace vasim
