// Fixture: a receiver is typed by the declaration in scope. Another
// function's locals (`Census s`, `Census c`) must not type the names
// here: `s` is this function's Pool, so `s.add(2)` is Pool::add; `c`
// is a parameter of no repo class, so `c.insert(...)` is container
// growth. Expected: two `alloc` violations, the `new` in Pool::add
// (chain Engine::tick -> Pool::add) and the growth (Engine::tick).

#define CRNET_HOT_PATH

#include <vector>

namespace fx {

struct Census
{
    void add(int) {}
    void insert(int) {}
};

struct Pool
{
    void
    add(int v)
    {
        int* p = new int(v);
        delete p;
    }
};

int
survey()
{
    Census s;
    Census c;
    s.add(1);
    c.insert(1);
    return 0;
}

class Engine
{
  public:
    CRNET_HOT_PATH
    void tick(std::vector<int>& c);
};

void
Engine::tick(std::vector<int>& c)
{
    Pool s;
    s.add(2);
    c.insert(c.end(), 3);
}

} // namespace fx
