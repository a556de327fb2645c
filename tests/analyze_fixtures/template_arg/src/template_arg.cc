// Fixture: a vector of a repo class. The class named inside the
// template arguments does not type the member, so `items_.push_back`
// is the vector's growth, not a call into Item. Expected: one
// `alloc` violation with chain Queue::tick.

#define CRNET_HOT_PATH

#include <vector>

namespace fx {

struct Item
{
    int v = 0;
};

class Queue
{
  public:
    CRNET_HOT_PATH
    void tick();

  private:
    std::vector<Item> items_;
};

void
Queue::tick()
{
    items_.push_back(Item{});
}

} // namespace fx
