#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace oceanstore {

void
Accumulator::add(double x)
{
    count_++;
    sum_ += x;
    if (count_ == 1) {
        min_ = max_ = x;
        mean_ = x;
        m2_ = 0.0;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
    }
    samples_.push_back(x);
    sorted_ = false;
}

double
Accumulator::mean() const
{
    return count_ ? mean_ : 0.0;
}

double
Accumulator::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

double
Accumulator::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    if (p <= 0.0)
        return samples_.front();
    if (p >= 100.0)
        return samples_.back();
    double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= samples_.size())
        return samples_.back();
    return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

void
Accumulator::clear()
{
    count_ = 0;
    sum_ = mean_ = m2_ = min_ = max_ = 0.0;
    samples_.clear();
    sorted_ = true;
}

} // namespace oceanstore
