// Fixture: raw randomness in tests/.

long
pick()
{
    return random();
}
