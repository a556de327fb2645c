/**
 * @file
 * Per-run telemetry: interval-sampled time series and per-router /
 * per-channel heat counters.
 *
 * The time series turns end-of-run aggregates into recovery curves:
 * every `sample_interval` cycles the network appends one sample with
 * the interval's deliveries, throughput, mean latency, kills and
 * fault events plus instantaneous in-flight/buffered gauges. The
 * transient-fault benches print them as `timeseries:` CSV blocks.
 *
 * The heatmap rolls each router's switch activity up into one row per
 * node: buffer-occupancy integral, per-input-port blocked cycles and
 * per-output-port forwarded flits, exported as a `heatmap:` CSV block
 * (one column pair per network port).
 */

#ifndef CRNET_CORE_TIMESERIES_HH
#define CRNET_CORE_TIMESERIES_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/sim/types.hh"

namespace crnet {

struct NetworkStats;

/** One sampling interval's deltas plus end-of-interval gauges. */
struct TimeSeriesSample
{
    Cycle at = 0;                     //!< Cycle the sample was taken.
    std::uint64_t delivered = 0;      //!< Messages delivered.
    std::uint64_t payloadFlits = 0;   //!< Measured payload flits.
    double meanLatency = 0.0;         //!< Mean total latency of the
                                      //!< interval's measured
                                      //!< deliveries (0 if none).
    std::uint64_t kills = 0;          //!< Source + path-wide kills.
    std::uint64_t retransmits = 0;    //!< Aborts folded in (bkills).
    std::uint64_t faultEvents = 0;    //!< FaultSchedule events fired.
    std::uint64_t inFlightWorms = 0;  //!< Gauge: active injector slots.
    std::uint64_t bufferedFlits = 0;  //!< Gauge: flits in all buffers.

    bool operator==(const TimeSeriesSample&) const = default;
};

/** Accumulates interval samples by differencing cumulative counters. */
class TimeSeries
{
  public:
    /** @param interval Sampling period in cycles (>= 1). */
    explicit TimeSeries(Cycle interval);

    Cycle interval() const { return interval_; }

    /**
     * Append one sample at cycle `now`: interval deltas against the
     * previous sample's cumulative counters, plus the gauge values
     * the caller measured this cycle.
     */
    void sample(Cycle now, const NetworkStats& stats,
                std::uint64_t in_flight_worms,
                std::uint64_t buffered_flits);

    /**
     * The partial-interval sample a run ending at cycle `now` would
     * flush: deltas since the last boundary sample, without touching
     * the differencing baselines (the run may still be continued, e.g.
     * after a snapshot restore).
     */
    TimeSeriesSample peekTail(Cycle now, const NetworkStats& stats,
                              std::uint64_t in_flight_worms,
                              std::uint64_t buffered_flits) const;

    const std::vector<TimeSeriesSample>& samples() const
    {
        return samples_;
    }

    /** Snapshot field list: samples plus the differencing baseline. */
    template <typename Self, typename Io>
    static void serialize(Self& self, Io& io);

  private:
    /** Deltas against the baselines, shared by sample()/peekTail(). */
    TimeSeriesSample build(Cycle now, const NetworkStats& stats,
                           std::uint64_t in_flight_worms,
                           std::uint64_t buffered_flits) const;

    Cycle interval_;
    std::vector<TimeSeriesSample> samples_;

    // Cumulative counter values at the previous sample.
    std::uint64_t lastDelivered_ = 0;
    std::uint64_t lastPayload_ = 0;
    std::uint64_t lastKills_ = 0;
    std::uint64_t lastRetrans_ = 0;
    std::uint64_t lastFaults_ = 0;
    double lastLatencySum_ = 0.0;
    std::uint64_t lastLatencyCount_ = 0;
};

/** CSV block (header + one row per sample), Table style. */
void writeTimeSeriesCsv(std::ostream& os,
                        const std::vector<TimeSeriesSample>& samples);

/** Per-node heat counters collected over one run. */
struct HeatmapData
{
    std::uint32_t radixK = 0;
    std::uint32_t dims = 0;
    PortId netPorts = 0;
    Cycle cycles = 0;  //!< Cycles the counters cover.

    /** Sum over cycles of buffered flits per router. [node] */
    std::vector<std::uint64_t> occupancyIntegral;
    /** Cycles each network input port held a blocked worm.
     *  [node * netPorts + port] */
    std::vector<std::uint64_t> blockedCycles;
    /** Data flits forwarded out of each network port.
     *  [node * netPorts + port] */
    std::vector<std::uint64_t> forwarded;
};

/**
 * CSV block: one row per node with coordinates (x = node % k,
 * y = node / k % k), the occupancy integral, total blocked cycles,
 * and per-network-port fwd_<p> / blk_<p> columns.
 */
void writeHeatmapCsv(std::ostream& os, const HeatmapData& heat);

template <typename Self, typename Io>
void
TimeSeries::serialize(Self& self, Io& io)
{
    io.seq(self.samples_, [&](auto& s) {
        io.u64(s.at);
        io.u64(s.delivered);
        io.u64(s.payloadFlits);
        io.f64(s.meanLatency);
        io.u64(s.kills);
        io.u64(s.retransmits);
        io.u64(s.faultEvents);
        io.u64(s.inFlightWorms);
        io.u64(s.bufferedFlits);
    });
    io.u64(self.lastDelivered_);
    io.u64(self.lastPayload_);
    io.u64(self.lastKills_);
    io.u64(self.lastRetrans_);
    io.u64(self.lastFaults_);
    io.f64(self.lastLatencySum_);
    io.u64(self.lastLatencyCount_);
}

} // namespace crnet

#endif // CRNET_CORE_TIMESERIES_HH
