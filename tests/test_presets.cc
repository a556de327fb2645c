/**
 * @file
 * Tests for the named configuration presets: each must validate, be
 * discoverable, and actually run.
 */

#include <gtest/gtest.h>

#include "src/core/experiment.hh"
#include "src/core/presets.hh"

namespace crnet {
namespace {

TEST(Presets, AllRegisteredPresetsValidate)
{
    ASSERT_FALSE(allPresets().empty());
    for (const Preset& p : allPresets()) {
        SCOPED_TRACE(p.name);
        EXPECT_FALSE(p.name.empty());
        EXPECT_FALSE(p.description.empty());
        p.config.validate();
    }
}

TEST(Presets, NamesAreUnique)
{
    const auto& presets = allPresets();
    for (std::size_t i = 0; i < presets.size(); ++i)
        for (std::size_t j = i + 1; j < presets.size(); ++j)
            EXPECT_NE(presets[i].name, presets[j].name);
}

TEST(Presets, LookupRoundTrips)
{
    for (const Preset& p : allPresets()) {
        EXPECT_TRUE(presetExists(p.name));
        const SimConfig cfg = presetConfig(p.name);
        EXPECT_EQ(cfg.summary(), p.config.summary());
    }
    EXPECT_FALSE(presetExists("no_such_preset"));
}

TEST(Presets, UnknownNameIsFatal)
{
    EXPECT_DEATH(presetConfig("no_such_preset"), "unknown preset");
}

TEST(Presets, ConfigFromArgsAppliesPresetThenOverrides)
{
    const char* argv_c[] = {"prog", "preset=fcr_noisy", "k=4",
                            "load=0.05"};
    SimConfig cfg = configFromArgs(SimConfig{}, 4,
                                   const_cast<char**>(argv_c));
    EXPECT_EQ(cfg.protocol, ProtocolKind::Fcr);
    EXPECT_EQ(cfg.radixK, 4u);           // Override wins.
    EXPECT_DOUBLE_EQ(cfg.injectionRate, 0.05);
    EXPECT_GT(cfg.transientFaultRate, 0.0);  // From the preset.
}

TEST(Presets, ConfigFromArgsWithoutPresetActsLikeApplyArgs)
{
    const char* argv_c[] = {"prog", "k=6"};
    SimConfig cfg = configFromArgs(SimConfig{}, 2,
                                   const_cast<char**>(argv_c));
    EXPECT_EQ(cfg.radixK, 6u);
}

TEST(Presets, PresetMustComeFirst)
{
    // A late preset= would replace the whole configuration and drop
    // k=4 without a word.
    const char* argv_c[] = {"prog", "k=4", "preset=eval_base"};
    EXPECT_DEATH(configFromArgs(SimConfig{}, 3,
                                const_cast<char**>(argv_c)),
                 "must be the first argument");
}

TEST(Presets, HeadlinePresetRunsHealthy)
{
    SimConfig cfg = presetConfig("cr_headline");
    cfg.injectionRate = 0.15;
    cfg.warmupCycles = 300;
    cfg.measureCycles = 1500;
    const RunResult r = runExperiment(cfg);
    EXPECT_TRUE(r.drained);
    EXPECT_FALSE(r.deadlocked);
    EXPECT_EQ(r.orderViolations, 0u);
}

TEST(Presets, FcrNoisyPresetKeepsIntegrity)
{
    SimConfig cfg = presetConfig("fcr_noisy");
    cfg.warmupCycles = 300;
    cfg.measureCycles = 1500;
    const RunResult r = runExperiment(cfg);
    EXPECT_GT(r.deliveredMeasured, 0u);
    EXPECT_EQ(r.corruptedDeliveries, 0u);
}

TEST(Presets, DeadlockDemoPresetActuallyDeadlocks)
{
    Network net(presetConfig("deadlock_demo"));
    bool deadlocked = false;
    for (Cycle i = 0; i < 20000 && !deadlocked; ++i) {
        net.tick();
        deadlocked = net.deadlocked();
    }
    EXPECT_TRUE(deadlocked);
}

} // namespace
} // namespace crnet
