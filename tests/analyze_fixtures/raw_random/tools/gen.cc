// Fixture: raw randomness in tools/.

unsigned
roll()
{
    std::mt19937_64 gen(1);
    return static_cast<unsigned>(gen());
}
