// Fixture: a member whose class is declared in a file read later
// (src/z_pool.hh sorts after this file). Every class is registered
// before any member is typed, so `pool_` is a Pool and
// `pool_.push(3)` is Pool::push, not container growth. Expected: one
// `alloc` violation, the `new` in Pool::push, with chain
// Engine::tick -> Pool::push.

#define CRNET_HOT_PATH

#include "z_pool.hh"

namespace fx {

class Engine
{
  public:
    CRNET_HOT_PATH
    void tick();

  private:
    Pool pool_;
};

void
Engine::tick()
{
    pool_.push(3);
}

} // namespace fx
