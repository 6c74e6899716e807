#include "base/logging.hh"

#include <cstdarg>
#include <cstdio>

namespace g5p
{

void
Logger::log(LogLevel level, const std::string &msg)
{
    const char *prefix = "";
    switch (level) {
      case LogLevel::Panic:  prefix = "panic: "; break;
      case LogLevel::Fatal:  prefix = "fatal: "; break;
      case LogLevel::Warn:   prefix = "warn: "; break;
      case LogLevel::Inform: prefix = "info: "; break;
      case LogLevel::Debug:  prefix = "debug: "; break;
    }
    std::fprintf(stderr, "%s%s\n", prefix, msg.c_str());
}

namespace detail
{

std::string
vformat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out(len > 0 ? len : 0, '\0');
    if (len > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    va_end(args);
    return out;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    Logger::log(LogLevel::Panic,
                msg + " (" + file + ":" + std::to_string(line) + ")");
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    Logger::log(LogLevel::Fatal,
                msg + " (" + file + ":" + std::to_string(line) + ")");
    std::exit(1);
}

} // namespace detail

} // namespace g5p
