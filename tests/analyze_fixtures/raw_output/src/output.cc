// Fixture: direct output in src/. Each C stdio call, iostream global
// and abort() must be reported; member and identifier lookalikes,
// comments and string literals must not.

namespace fx {

void
report(Injector& inj, Worm& worm, int ch, int vc, MsgId msg, int x)
{
    printf("x");
    std::fprintf(stderr, "x");
    puts("x");
    perror("open");
    std::cout << x;
    std::cerr << x;
    std::clog << x;
    abort();
    std::abort();
    inj.acceptAbort(ch, vc, msg);
    void onAbort(MsgId msg);
    int sprintf_like = 0;
    bool aborted = worm.aborted();
    const bool abort = ch < 0;
    // std::cout in a comment survives stripping upstream
    // std::cout
    const char* text = "std::cerr";
    std::clog << x;
}

} // namespace fx
