// Fixture: tests may set the environment; the rule reads only src/.

void
envTest()
{
    setenv("HOME", "/nonexistent", 1);
}
