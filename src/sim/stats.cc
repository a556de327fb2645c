#include "src/sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "src/sim/log.hh"

namespace crnet {

void
Accumulator::add(double x)
{
    ++count_;
    if (count_ == 1) {
        mean_ = x;
        min_ = x;
        max_ = x;
        m2_ = 0.0;
        return;
    }
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
Accumulator::merge(const Accumulator& other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Accumulator::reset()
{
    *this = Accumulator();
}

double
Accumulator::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double bin_width, std::size_t num_bins)
    : binWidth_(bin_width), bins_(num_bins, 0)
{
    if (bin_width <= 0.0)
        panic("Histogram bin width must be positive");
    if (num_bins == 0)
        panic("Histogram needs at least one bin");
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < 0.0) {
        // Clamp: latencies are non-negative by construction; a negative
        // sample is a caller bug but should not corrupt indexing.
        ++bins_[0];
        return;
    }
    const auto idx = static_cast<std::size_t>(x / binWidth_);
    if (idx >= bins_.size())
        ++overflow_;
    else
        ++bins_[idx];
}

void
Histogram::reset()
{
    std::fill(bins_.begin(), bins_.end(), 0);
    overflow_ = 0;
    total_ = 0;
}

double
Histogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const double target = p * static_cast<double>(total_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        seen += bins_[i];
        if (static_cast<double>(seen) >= target)
            return binWidth_ * static_cast<double>(i + 1);
    }
    // Falls in the overflow bin; report the histogram range end.
    return binWidth_ * static_cast<double>(bins_.size());
}

} // namespace crnet
