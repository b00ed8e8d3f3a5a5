#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace lergan {
namespace detail {

namespace {

/** Human-readable tag for each level. */
const char *
levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Fatal: return "fatal";
      case LogLevel::Panic: return "panic";
    }
    return "?";
}

} // namespace

void
terminate(LogLevel level, const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s (%s:%d)\n", levelTag(level), msg.c_str(),
                 file, line);
    if (level == LogLevel::Fatal)
        std::exit(1);
    std::abort();
}

} // namespace detail
} // namespace lergan
