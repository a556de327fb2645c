/**
 * @file
 * Fixture binary for tests/test_campaign_resume.py: runs a small
 * dynamic-fault campaign and prints its summary and per-trial rows in
 * a stable text form. The python driver SIGKILLs it mid-campaign,
 * restarts it against the same journal, and asserts the resumed
 * output is byte-identical to an uninterrupted reference run
 * (wallSeconds and resumedTrials are deliberately not printed).
 *
 * Args: CampaignConfig::applyArgs's, in any order; the python tests pass
 *   trials=N seed_base=S journal=PATH jobs=N
 *   status=PATH status_interval=S profile=0|1
 *
 * The status/profile keys feed tests/test_status_schema.py: the same
 * SIGKILL machinery that validates journal resume also validates that
 * a status file is atomically rewritten (never torn) and that the
 * summary stays byte-identical with telemetry enabled.
 */

#include <cstdio>
#include <iostream>

#include "src/fault/campaign.hh"
#include "src/sim/config.hh"

int
main(int argc, char** argv)
{
    using namespace crnet;

    CampaignConfig cc;
    cc.base.radixK = 4;
    cc.base.dimensionsN = 2;
    cc.base.numVcs = 2;
    cc.base.routing = RoutingKind::MinimalAdaptive;
    cc.base.protocol = ProtocolKind::Fcr;
    cc.base.injectionRate = 0.15;
    cc.base.messageLength = 8;
    cc.base.timeout = 16;
    cc.base.misrouteAfterRetries = 1;
    cc.base.dynamicLinkKills = 2;
    cc.base.warmupCycles = 300;
    cc.base.measureCycles = 2000;
    cc.trials = 12;

    cc.applyArgs(argc, argv);

    std::vector<TrialOutcome> trials;
    const CampaignSummary s = runCampaign(cc, &trials);

    // %.17g: doubles round-trip exactly, so identical campaigns print
    // identical bytes.
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "summary trials=%u accounted=%u deadlocked=%u quarantined=%u "
        "accepted=%llu delivered=%llu refused=%llu pending=%llu "
        "dups=%llu fault_events=%llu rate=%.17g pre=%.17g post=%.17g "
        "rec_mean=%.17g rec_max=%llu flit_events=%llu",
        s.trials, s.accountedTrials, s.deadlockedTrials,
        s.quarantinedTrials,
        static_cast<unsigned long long>(s.accepted),
        static_cast<unsigned long long>(s.delivered),
        static_cast<unsigned long long>(s.refused),
        static_cast<unsigned long long>(s.pending),
        static_cast<unsigned long long>(s.duplicates),
        static_cast<unsigned long long>(s.faultEvents),
        s.deliveryRate, s.meanPreFaultLatency, s.meanPostFaultLatency,
        s.meanRecoveryCycles,
        static_cast<unsigned long long>(s.maxRecoveryCycles),
        static_cast<unsigned long long>(s.flitEvents));
    std::cout << buf << "\n";

    for (const TrialOutcome& t : trials) {
        std::snprintf(
            buf, sizeof(buf),
            "trial %u seed=%llu acc=%llu del=%llu ref=%llu pend=%llu "
            "dups=%llu faults=%llu lost=%llu timeouts=%llu "
            "first=%llu pre=%.17g post=%.17g rec=%llu dead=%d ok=%d "
            "cycles=%llu events=%llu quar=%d retries=%u",
            t.trial, static_cast<unsigned long long>(t.seed),
            static_cast<unsigned long long>(t.accepted),
            static_cast<unsigned long long>(t.delivered),
            static_cast<unsigned long long>(t.refused),
            static_cast<unsigned long long>(t.pendingAtEnd),
            static_cast<unsigned long long>(t.duplicates),
            static_cast<unsigned long long>(t.faultEvents),
            static_cast<unsigned long long>(t.flitsLost),
            static_cast<unsigned long long>(t.receiverTimeouts),
            static_cast<unsigned long long>(t.firstFaultAt),
            t.preFaultLatency, t.postFaultLatency,
            static_cast<unsigned long long>(t.recoveryCycles),
            t.deadlocked ? 1 : 0, t.fullyAccounted ? 1 : 0,
            static_cast<unsigned long long>(t.cyclesRun),
            static_cast<unsigned long long>(t.flitEvents),
            t.quarantined ? 1 : 0, t.budgetRetries);
        std::cout << buf << "\n";
    }
    return 0;
}
