// Fixture: benches print their tables; the rule reads only src/.

void
table()
{
    printf("load latency\n");
}
