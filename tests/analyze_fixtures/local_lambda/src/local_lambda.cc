// Fixture: a local lambda shares its name with a function that
// allocates. The lambda's body is the enclosing function's, so a call
// to it is no edge to Schedule::add. Expected: clean.

#define CRNET_HOT_PATH

namespace fx {

class Schedule
{
  public:
    void
    add(int v)
    {
        int* p = new int(v);
        delete p;
    }
};

CRNET_HOT_PATH
int
candidates(int n)
{
    int sum = 0;
    auto add = [&](int v) { sum += v; };
    for (int i = 0; i < n; ++i)
        add(i);
    return sum;
}

} // namespace fx
