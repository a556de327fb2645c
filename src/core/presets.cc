#include "src/core/presets.hh"

#include "src/sim/log.hh"

namespace crnet {

namespace {

SimConfig
evalBase()
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.radixK = 8;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.bufferDepth = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Cr;
    cfg.messageLength = 16;
    cfg.timeout = 8;  // message length / VCs, the paper's setting.
    cfg.warmupCycles = 1000;
    cfg.measureCycles = 5000;
    cfg.drainCycles = 60000;
    cfg.seed = 20260706;
    return cfg;
}

std::vector<Preset>
buildPresets()
{
    std::vector<Preset> out;

    {
        SimConfig cfg = evalBase();
        out.push_back({"eval_base",
                       "8-ary 2-cube CR evaluation baseline "
                       "(2 VCs, 16-flit messages)",
                       cfg});
    }
    {
        SimConfig cfg = evalBase();
        cfg.numVcs = 1;
        cfg.timeout = 16;
        out.push_back({"cr_headline",
                       "CR's headline config: adaptive torus routing "
                       "with a single VC",
                       cfg});
    }
    {
        SimConfig cfg = evalBase();
        cfg.routing = RoutingKind::DimensionOrder;
        cfg.protocol = ProtocolKind::None;
        out.push_back({"dor_baseline",
                       "dimension-order torus baseline "
                       "(2 dateline VCs)",
                       cfg});
    }
    {
        SimConfig cfg = evalBase();
        cfg.routing = RoutingKind::DimensionOrder;
        cfg.protocol = ProtocolKind::None;
        cfg.bufferDepth = 16;
        out.push_back({"fig14a_dor16",
                       "Fig. 14(a) rich-buffer DOR comparator "
                       "(16-flit FIFOs)",
                       cfg});
    }
    {
        SimConfig cfg = evalBase();
        out.push_back({"fig14a_cr",
                       "Fig. 14(a) CR side: 2-flit buffers, "
                       "timeout = len/VCs",
                       cfg});
    }
    {
        SimConfig cfg = evalBase();
        cfg.routing = RoutingKind::Duato;
        cfg.protocol = ProtocolKind::None;
        cfg.numVcs = 3;
        out.push_back({"duato_baseline",
                       "Duato adaptive baseline: 2 escape + 1 "
                       "adaptive VC (PDS methodology)",
                       cfg});
    }
    {
        SimConfig cfg = evalBase();
        cfg.protocol = ProtocolKind::Fcr;
        cfg.injectionRate = 0.15;
        cfg.timeout = 32;
        cfg.transientFaultRate = 1e-3;
        out.push_back({"fcr_noisy",
                       "FCR under aggressive transient faults "
                       "(1e-3 per flit-hop)",
                       cfg});
    }
    {
        SimConfig cfg = evalBase();
        cfg.protocol = ProtocolKind::Fcr;
        cfg.injectionRate = 0.10;
        cfg.timeout = 32;
        cfg.permanentLinkFaults = 4;
        cfg.misrouteAfterRetries = 2;
        out.push_back({"fcr_broken_links",
                       "FCR with 4 dead physical links and bounded "
                       "misrouting",
                       cfg});
    }
    {
        SimConfig cfg = evalBase();
        cfg.numVcs = 1;
        cfg.protocol = ProtocolKind::None;
        cfg.injectionRate = 0.8;
        cfg.messageLength = 32;
        cfg.deadlockThreshold = 2000;
        out.push_back({"deadlock_demo",
                       "the motivating failure: adaptive torus "
                       "wormhole with no VCs and no recovery",
                       cfg});
    }
    {
        SimConfig cfg = evalBase();
        cfg.topology = TopologyKind::Mesh;
        cfg.routing = RoutingKind::PlanarAdaptive;
        cfg.protocol = ProtocolKind::None;
        cfg.numVcs = 3;
        out.push_back({"par_mesh",
                       "planar-adaptive routing on a 2D mesh "
                       "(the authors' earlier scheme)",
                       cfg});
    }
    {
        SimConfig cfg = evalBase();
        cfg.channelLatency = 4;
        cfg.bufferDepth = 9;
        cfg.timeout = 64;
        out.push_back({"deep_network",
                       "long-wire network (4-cycle channels): the "
                       "regime the paper flags as CR-unfriendly",
                       cfg});
    }
    return out;
}

} // namespace

const std::vector<Preset>&
allPresets()
{
    static const std::vector<Preset> presets = buildPresets();
    return presets;
}

SimConfig
presetConfig(const std::string& name)
{
    for (const Preset& p : allPresets())
        if (p.name == name)
            return p.config;
    std::string known;
    for (const Preset& p : allPresets())
        known += " " + p.name;
    fatal("unknown preset '", name, "'; known presets:", known);
}

bool
presetExists(const std::string& name)
{
    for (const Preset& p : allPresets())
        if (p.name == name)
            return true;
    return false;
}

SimConfig
configFromArgs(SimConfig base, int argc, char** argv)
{
    const auto args = splitArgs(argc, argv);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const auto& [key, value] = args[i];
        if (key != "preset")
            base.set(key, value);
        else if (i == 0)
            base = presetConfig(value);
        else
            fatal("preset=", value, " must be the first argument: it "
                  "replaces the whole configuration, so it would drop "
                  "every key before it");
    }
    return base;
}

} // namespace crnet
