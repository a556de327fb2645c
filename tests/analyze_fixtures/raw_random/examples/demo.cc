// Fixture: raw randomness in examples/.

void
reseed()
{
    srand(7);
}
