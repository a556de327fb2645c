// Fixture: environment reads and writes in src/. Each libc call must
// be reported; members, lookalike names, comments and string literals
// must not.

namespace fx {

unsigned
jobs(Shell& shell, Shell* login)
{
    const char* v = std::getenv("JOBS");
    const char* s = secure_getenv("JOBS");
    setenv("JOBS", "4", 1);
    putenv(buf);
    ::unsetenv("JOBS");
    shell.getenv("JOBS");
    login->setenv("JOBS", "4");
    getenv_or(v, "1");
    const bool getenv = v != nullptr;
    // getenv("JOBS") in a comment
    const char* text = "setenv(JOBS)";
    return getenv ? 1 : 0;
}

} // namespace fx
