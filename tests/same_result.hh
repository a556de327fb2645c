/**
 * @file
 * The one RunResult comparison of the identity suites (schedulers,
 * shard counts, telemetry, parallel batches, fuzz legs): every field
 * must match exactly except the host timing, wallSeconds and profile.
 */

#ifndef CRNET_TESTS_SAME_RESULT_HH
#define CRNET_TESTS_SAME_RESULT_HH

#include <gtest/gtest.h>

#include "src/core/metrics.hh"

namespace crnet {

/** Expect `a` and `b` to agree on every field but the host timing. */
inline void
expectSameResult(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.offeredLoad, b.offeredLoad);
    EXPECT_EQ(a.acceptedThroughput, b.acceptedThroughput);
    EXPECT_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.netLatency, b.netLatency);
    EXPECT_EQ(a.p50Latency, b.p50Latency);
    EXPECT_EQ(a.p95Latency, b.p95Latency);
    EXPECT_EQ(a.p99Latency, b.p99Latency);
    EXPECT_EQ(a.maxLatency, b.maxLatency);
    EXPECT_EQ(a.latencyStddev, b.latencyStddev);
    EXPECT_EQ(a.avgAttempts, b.avgAttempts);
    EXPECT_EQ(a.killsPerMessage, b.killsPerMessage);
    EXPECT_EQ(a.padOverhead, b.padOverhead);
    EXPECT_EQ(a.measuredMessages, b.measuredMessages);
    EXPECT_EQ(a.deliveredMeasured, b.deliveredMeasured);
    EXPECT_EQ(a.totalKills, b.totalKills);
    EXPECT_EQ(a.pathWideKills, b.pathWideKills);
    EXPECT_EQ(a.escapeAllocations, b.escapeAllocations);
    EXPECT_EQ(a.misrouteHops, b.misrouteHops);
    EXPECT_EQ(a.corruptedDeliveries, b.corruptedDeliveries);
    EXPECT_EQ(a.orderViolations, b.orderViolations);
    EXPECT_EQ(a.duplicateDeliveries, b.duplicateDeliveries);
    EXPECT_EQ(a.refusals, b.refusals);
    EXPECT_EQ(a.deadlocked, b.deadlocked);
    EXPECT_EQ(a.drained, b.drained);
    EXPECT_EQ(a.cyclesRun, b.cyclesRun);
    EXPECT_EQ(a.latencyOverflow, b.latencyOverflow);
    EXPECT_EQ(a.timeseries, b.timeseries);
    EXPECT_EQ(a.flitEvents, b.flitEvents);
    ASSERT_EQ(a.heatmap != nullptr, b.heatmap != nullptr);
    if (a.heatmap != nullptr) {
        const HeatmapData& ha = *a.heatmap;
        const HeatmapData& hb = *b.heatmap;
        EXPECT_EQ(ha.radixK, hb.radixK);
        EXPECT_EQ(ha.dims, hb.dims);
        EXPECT_EQ(ha.netPorts, hb.netPorts);
        EXPECT_EQ(ha.cycles, hb.cycles);
        EXPECT_EQ(ha.occupancyIntegral, hb.occupancyIntegral);
        EXPECT_EQ(ha.blockedCycles, hb.blockedCycles);
        EXPECT_EQ(ha.forwarded, hb.forwarded);
    }
}

} // namespace crnet

#endif // CRNET_TESTS_SAME_RESULT_HH
