// Fixture: the one file allowed to name a raw engine.

#ifndef CRNET_SIM_RNG_HH
#define CRNET_SIM_RNG_HH

namespace fx {

struct Rng
{
    explicit Rng(unsigned seed) : engine(seed) {}
    unsigned next() { return static_cast<unsigned>(engine()); }
    std::mt19937_64 engine;
};

} // namespace fx

#endif // CRNET_SIM_RNG_HH
