// Fixture: the one file allowed to write and abort (any log.hh).

#ifndef CRNET_LOG_HH
#define CRNET_LOG_HH

namespace fx {

[[noreturn]] inline void
panic(const char* msg)
{
    std::fprintf(stderr, "panic: %s\n", msg);
    std::abort();
}

} // namespace fx

#endif // CRNET_LOG_HH
