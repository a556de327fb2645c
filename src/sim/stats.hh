/**
 * @file
 * Statistics primitives: streaming accumulators, histograms and counters.
 *
 * All network metrics (latency, throughput, kill counts, padding
 * overhead) are collected through these types so every experiment
 * reports mean/stddev/percentiles the same way.
 */

#ifndef CRNET_SIM_STATS_HH
#define CRNET_SIM_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/log.hh"

namespace crnet {

/**
 * Streaming scalar accumulator (Welford's algorithm).
 *
 * Tracks count, mean, variance, min and max without storing samples.
 */
class Accumulator
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const Accumulator& other);

    /** Remove all samples. */
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return mean_ * static_cast<double>(count_); }
    /** Mean of the samples; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }
    /** Unbiased sample variance; 0 with fewer than two samples. */
    double variance() const;
    /** Sample standard deviation. */
    double stddev() const;
    /** Smallest sample; 0 when empty. */
    double min() const { return count_ ? min_ : 0.0; }
    /** Largest sample; 0 when empty. */
    double max() const { return count_ ? max_ : 0.0; }

    /** Snapshot field list (snapshot.hh). */
    template <typename Self, typename Io>
    static void
    serialize(Self& self, Io& io)
    {
        io.u64(self.count_);
        io.f64(self.mean_);
        io.f64(self.m2_);
        io.f64(self.min_);
        io.f64(self.max_);
    }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-width binned histogram over [0, binWidth * numBins), with an
 * overflow bin. Supports exact percentile queries at bin resolution.
 */
class Histogram
{
  public:
    /**
     * @param bin_width Width of each bin (> 0).
     * @param num_bins  Number of regular bins (> 0).
     */
    Histogram(double bin_width, std::size_t num_bins);

    /** Add one sample. */
    void add(double x);

    /** Remove all samples. */
    void reset();

    std::uint64_t count() const { return total_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t binCount(std::size_t i) const { return bins_.at(i); }
    std::size_t numBins() const { return bins_.size(); }
    double binWidth() const { return binWidth_; }

    /**
     * Value below which fraction p of the samples fall (bin upper edge
     * resolution). p in [0, 1]. Returns 0 when empty.
     */
    double percentile(double p) const;

    /**
     * Snapshot field list (snapshot.hh); the restoring histogram's bin
     * geometry must match the saved one.
     */
    template <typename Self, typename Io>
    static void
    serialize(Self& self, Io& io)
    {
        io.same(
            [&](double width, std::uint64_t num_bins) {
                panic("Histogram geometry mismatch on restore: saved ",
                      num_bins, " bins of width ", width, ", have ",
                      self.bins_.size(), " of width ", self.binWidth_);
            },
            self.binWidth_, std::uint64_t{self.bins_.size()});
        for (auto& bin : self.bins_)
            io.u64(bin);
        io.u64(self.overflow_);
        io.u64(self.total_);
    }

  private:
    double binWidth_;
    std::vector<std::uint64_t> bins_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

/** Named monotonically increasing counter. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { value_ += by; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

    /** Snapshot field list (snapshot.hh). */
    template <typename Self, typename Io>
    static void
    serialize(Self& self, Io& io)
    {
        io.u64(self.value_);
    }

  private:
    std::uint64_t value_ = 0;
};

} // namespace crnet

#endif // CRNET_SIM_STATS_HH
