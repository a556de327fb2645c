#include "src/core/timeseries.hh"

#include <ostream>

#include "src/core/metrics.hh"
#include "src/sim/log.hh"
#include "src/sim/table.hh"

namespace crnet {

TimeSeries::TimeSeries(Cycle interval) : interval_(interval)
{
    if (interval_ < 1)
        panic("TimeSeries interval must be >= 1");
}

TimeSeriesSample
TimeSeries::build(Cycle now, const NetworkStats& stats,
                  std::uint64_t in_flight_worms,
                  std::uint64_t buffered_flits) const
{
    const double lat_sum = stats.totalLatency.sum();
    const std::uint64_t lat_count = stats.totalLatency.count();

    TimeSeriesSample s;
    s.at = now;
    s.delivered = stats.messagesDelivered.value() - lastDelivered_;
    s.payloadFlits =
        stats.measuredPayloadFlits.value() - lastPayload_;
    s.kills = stats.sourceKills.value() +
              stats.router.pathWideKills.value() - lastKills_;
    s.retransmits = stats.abortedByBkill.value() - lastRetrans_;
    s.faultEvents = stats.faultEventsApplied.value() - lastFaults_;
    if (lat_count > lastLatencyCount_) {
        s.meanLatency = (lat_sum - lastLatencySum_) /
                        static_cast<double>(lat_count -
                                            lastLatencyCount_);
    }
    s.inFlightWorms = in_flight_worms;
    s.bufferedFlits = buffered_flits;
    return s;
}

void
TimeSeries::sample(Cycle now, const NetworkStats& stats,
                   std::uint64_t in_flight_worms,
                   std::uint64_t buffered_flits)
{
    samples_.push_back(
        build(now, stats, in_flight_worms, buffered_flits));

    lastDelivered_ = stats.messagesDelivered.value();
    lastPayload_ = stats.measuredPayloadFlits.value();
    lastKills_ = stats.sourceKills.value() +
                 stats.router.pathWideKills.value();
    lastRetrans_ = stats.abortedByBkill.value();
    lastFaults_ = stats.faultEventsApplied.value();
    lastLatencySum_ = stats.totalLatency.sum();
    lastLatencyCount_ = stats.totalLatency.count();
}

TimeSeriesSample
TimeSeries::peekTail(Cycle now, const NetworkStats& stats,
                     std::uint64_t in_flight_worms,
                     std::uint64_t buffered_flits) const
{
    return build(now, stats, in_flight_worms, buffered_flits);
}

void
writeTimeSeriesCsv(std::ostream& os,
                   const std::vector<TimeSeriesSample>& samples)
{
    Table t("timeseries");
    t.setHeader({"cycle", "delivered", "payload_flits", "mean_latency",
                 "kills", "retransmits", "fault_events",
                 "inflight_worms", "buffered_flits"});
    for (const TimeSeriesSample& s : samples) {
        t.addRow({Table::cell(s.at), Table::cell(s.delivered),
                  Table::cell(s.payloadFlits),
                  Table::cell(s.meanLatency, 2), Table::cell(s.kills),
                  Table::cell(s.retransmits), Table::cell(s.faultEvents),
                  Table::cell(s.inFlightWorms),
                  Table::cell(s.bufferedFlits)});
    }
    t.printCsv(os);
}

void
writeHeatmapCsv(std::ostream& os, const HeatmapData& heat)
{
    const auto nodes =
        static_cast<NodeId>(heat.occupancyIntegral.size());
    Table t("heatmap");
    std::vector<std::string> header{"node", "x", "y", "occ_integral",
                                    "blocked_cycles"};
    for (PortId p = 0; p < heat.netPorts; ++p) {
        header.push_back("fwd_p" + std::to_string(p));
        header.push_back("blk_p" + std::to_string(p));
    }
    t.setHeader(std::move(header));
    for (NodeId n = 0; n < nodes; ++n) {
        std::vector<std::string> row;
        row.push_back(Table::cell(static_cast<std::uint64_t>(n)));
        row.push_back(Table::cell(
            static_cast<std::uint64_t>(n % heat.radixK)));
        row.push_back(Table::cell(
            static_cast<std::uint64_t>(n / heat.radixK % heat.radixK)));
        row.push_back(Table::cell(heat.occupancyIntegral[n]));
        std::uint64_t blocked = 0;
        for (PortId p = 0; p < heat.netPorts; ++p)
            blocked += heat.blockedCycles[
                static_cast<std::size_t>(n) * heat.netPorts + p];
        row.push_back(Table::cell(blocked));
        for (PortId p = 0; p < heat.netPorts; ++p) {
            const std::size_t i =
                static_cast<std::size_t>(n) * heat.netPorts + p;
            row.push_back(Table::cell(heat.forwarded[i]));
            row.push_back(Table::cell(heat.blockedCycles[i]));
        }
        t.addRow(std::move(row));
    }
    t.printCsv(os);
}

} // namespace crnet
