// Fixture: raw randomness outside src/ is reported too.

int
jitter()
{
    return rand() % 8;
}
