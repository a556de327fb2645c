// Fixture: assert() in src/ is reported; static_assert, a lookalike
// name and a member call are not.

namespace fx {

void
check(Audit& audit, int x)
{
    assert(x > 0);
    static_assert(sizeof(x) == 4);
    myassert(x);
    audit.assert(x);
}

} // namespace fx
