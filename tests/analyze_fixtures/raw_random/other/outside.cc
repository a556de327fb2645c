// Fixture: a tree the rule does not read; never reported.

int
unscanned()
{
    return rand();
}
