#include "base/str.hh"

#include <cstdio>

namespace g5p
{

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

std::string
fmtDouble(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
fmtPercent(double frac, int digits)
{
    return fmtDouble(frac * 100.0, digits) + "%";
}

std::string
fmtBytes(std::uint64_t bytes)
{
    if (bytes >= (1ULL << 20)) {
        double mb = (double)bytes / (1ULL << 20);
        // Integral megabyte counts print without a fraction.
        if (bytes % (1ULL << 20) == 0)
            return std::to_string(bytes >> 20) + "MB";
        return fmtDouble(mb, 1) + "MB";
    }
    if (bytes >= (1ULL << 10)) {
        if (bytes % (1ULL << 10) == 0)
            return std::to_string(bytes >> 10) + "KB";
        return fmtDouble((double)bytes / (1ULL << 10), 1) + "KB";
    }
    return std::to_string(bytes) + "B";
}

std::string
padLeft(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

} // namespace g5p
