// Fixture: tests may assert; the rule reads only src/.

void
checkTest(int x)
{
    assert(x > 0);
}
