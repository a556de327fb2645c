// Fixture: raw randomness in src/. The engine type and each C PRNG
// call must be reported; the seeded Rng and a lookalike name must
// not.

#include "src/sim/rng.hh"

namespace fx {

int
draw(unsigned seed)
{
    std::mt19937 gen(seed);
    int r = rand();
    srand(42);
    Rng rng(seed);
    randomize_later();
    return r + static_cast<int>(gen() + rng.next());
}

} // namespace fx
