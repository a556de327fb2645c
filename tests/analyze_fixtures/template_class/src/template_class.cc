// Fixture: the unordered case in an out-of-line member function
// template whose parameter is spelled `class`, the way serializers
// are written. Expected: one `unordered-iter` violation in
// Ledger::transfer with chain save -> Ledger::transfer (the template
// parameter list must not open a class scope named Io).

#define CRNET_RESULT_AFFECTING

#include <unordered_map>

namespace fx {

class Ledger
{
  public:
    template <class Io>
    void transfer(Io& io) const;

  private:
    std::unordered_map<int, double> entries_;
};

struct Sum
{
    double total = 0.0;
    void add(double v) { total += v; }
};

template <class Io>
void
Ledger::transfer(Io& io) const
{
    for (const auto& e : entries_)
        io.add(e.second);
}

CRNET_RESULT_AFFECTING
double
save(const Ledger& ledger)
{
    Sum sum;
    ledger.transfer(sum);
    return sum.total;
}

} // namespace fx
