/**
 * @file
 * Monte-Carlo dynamic-fault campaign: N seeded trials with links
 * dying at random cycles under load, verified against the delivery
 * ledger.
 *
 * Expected shape: FCR keeps a 100%-accounted ledger in every trial
 * (each accepted message delivered exactly once or explicitly
 * refused), with zero deadlocks; delivery rate stays near 1.0 and the
 * post-fault latency transient is modest. CR accounts everything too
 * but may deliver corrupted payloads under a transient burst.
 *
 * Extra args (CampaignConfig::applyArgs; any other key is a config
 * override):
 *   trials=N        number of seeded trials (default 100)
 *   seed_base=S     seed of trial 0 (default 1)
 *   journal=PATH    crash-resume journal (docs/ROBUSTNESS.md); a
 *                   restarted campaign replays completed trials and
 *                   runs only the missing ones
 *   trial_retries=N watchdog re-runs before quarantining a trial
 *                   that exhausts its drain budget (default 1)
 */

#include "bench/bench_common.hh"
#include "src/fault/campaign.hh"

int
main(int argc, char** argv)
{
    using namespace crnet;
    using namespace crnet::bench;

    CampaignConfig cc;
    cc.base = baseConfig();
    cc.base.protocol = ProtocolKind::Fcr;
    cc.base.injectionRate = 0.15;
    cc.base.timeout = 32;
    cc.base.maxRetries = 0;  // Retry forever; refusal needs a cap.
    // Misrouting is required under dynamic faults: a link death can
    // leave (src,dst) pairs with no live minimal path.
    cc.base.misrouteAfterRetries = 1;
    cc.base.misrouteBudget = 4;
    cc.base.dynamicLinkKills = 2;

    cc.applyArgs(argc, argv);

    std::vector<TrialOutcome> trials;
    const CampaignSummary s = runCampaign(cc, &trials);
    record(s);
    suiteTotals().jobs = resolveJobs(cc.base.jobs);

    Table t("Dynamic-fault campaign (" +
            std::to_string(cc.trials) + " trials, load 0.15)");
    t.setHeader({"trials", "accounted", "deadlocks", "quarantined",
                 "resumed", "accepted", "delivered", "refused",
                 "pending", "dups", "delivery_rate", "pre_lat",
                 "post_lat", "recovery_mean", "recovery_max"});
    t.addRow({Table::cell(std::uint64_t{s.trials}),
              Table::cell(std::uint64_t{s.accountedTrials}),
              Table::cell(std::uint64_t{s.deadlockedTrials}),
              Table::cell(std::uint64_t{s.quarantinedTrials}),
              Table::cell(std::uint64_t{s.resumedTrials}),
              Table::cell(s.accepted), Table::cell(s.delivered),
              Table::cell(s.refused), Table::cell(s.pending),
              Table::cell(s.duplicates),
              Table::cell(s.deliveryRate, 4),
              Table::cell(s.meanPreFaultLatency, 1),
              Table::cell(s.meanPostFaultLatency, 1),
              Table::cell(s.meanRecoveryCycles, 0),
              Table::cell(std::uint64_t{s.maxRecoveryCycles})});
    emit(t);

    // Per-trial rows for post-processing (tools/extract_csv.py writes
    // them to <bench>__trials.csv).
    std::cout << "campaign-trials:\n";
    std::cout << "trial,seed,accepted,delivered,refused,pending,dups,"
              << "fault_events,flits_lost,rcv_timeouts,first_fault,"
              << "pre_lat,post_lat,recovery,deadlocked,accounted,"
              << "cycles,quarantined,budget_retries\n";
    for (const TrialOutcome& tr : trials) {
        std::cout << tr.trial << ',' << tr.seed << ',' << tr.accepted
                  << ',' << tr.delivered << ',' << tr.refused << ','
                  << tr.pendingAtEnd << ',' << tr.duplicates << ','
                  << tr.faultEvents << ',' << tr.flitsLost << ','
                  << tr.receiverTimeouts << ',' << tr.firstFaultAt
                  << ',' << tr.preFaultLatency << ','
                  << tr.postFaultLatency << ',' << tr.recoveryCycles
                  << ',' << (tr.deadlocked ? 1 : 0) << ','
                  << (tr.fullyAccounted ? 1 : 0) << ',' << tr.cyclesRun
                  << ',' << (tr.quarantined ? 1 : 0) << ','
                  << tr.budgetRetries << "\n";
    }
    std::cout << "\n";

    // Representative trial telemetry: replay trial 0's exact
    // configuration (same seed, same fault draws) with interval
    // sampling on, so the campaign output carries one recovery curve
    // alongside the aggregate rows.
    SimConfig rep = cc.base;
    rep.seed = cc.seedBase;
    rep.sampleInterval = 250;
    const RunResult rr = runOne(rep);
    std::printf("representative trial (seed %llu):\n",
                static_cast<unsigned long long>(rep.seed));
    emitTimeSeries(rr);

    std::printf("expected shape: accounted == trials, zero deadlocks, "
                "zero pending, zero dups;\ndelivery rate ~1.0 with a "
                "bounded post-fault latency transient.\n");
    timingFooter();
    return s.accountedTrials == s.trials ? 0 : 1;
}
