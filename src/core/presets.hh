/**
 * @file
 * Named configuration presets: one per paper experiment, plus the
 * common baselines, so examples, tests and user code can reference
 * experiments by name. `eval_base` is exactly the benches' baseline
 * network (bench::baseConfig() starts from it); the other presets
 * give an experiment's headline setup, which its bench may vary.
 */

#ifndef CRNET_CORE_PRESETS_HH
#define CRNET_CORE_PRESETS_HH

#include <string>
#include <vector>

#include "src/sim/config.hh"

namespace crnet {

/** A named preset with a one-line description. */
struct Preset
{
    std::string name;
    std::string description;
    SimConfig config;
};

/** All registered presets. */
const std::vector<Preset>& allPresets();

/** Look up one preset by name; fatal() on unknown names. */
SimConfig presetConfig(const std::string& name);

/** True when `name` names a preset. */
bool presetExists(const std::string& name);

/**
 * CLI front door used by the examples: like SimConfig::applyArgs, but
 * a leading `preset=<name>` argument replaces the whole base
 * configuration first and later `key=value` arguments refine it. A
 * `preset=` anywhere else is fatal. Returns the resulting config.
 */
SimConfig configFromArgs(SimConfig base, int argc, char** argv);

} // namespace crnet

#endif // CRNET_CORE_PRESETS_HH
