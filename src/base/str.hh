/**
 * @file
 * Small string helpers used by stats dumping and report formatting.
 */

#ifndef G5P_BASE_STR_HH
#define G5P_BASE_STR_HH

#include <string>
#include <vector>

namespace g5p
{

/** Split @p s on @p sep, dropping empty fields. */
std::vector<std::string> split(const std::string &s, char sep);

/** printf "%.*f" with @p digits fractional digits. */
std::string fmtDouble(double v, int digits = 2);

/** Format @p v as a percentage string like "41.5%". */
std::string fmtPercent(double frac, int digits = 1);

/** Human-readable byte size: 8192 -> "8KB", 3250585 -> "3.1MB". */
std::string fmtBytes(std::uint64_t bytes);

/** Left-pad @p s to @p width with spaces. */
std::string padLeft(const std::string &s, std::size_t width);

/** Right-pad @p s to @p width with spaces. */
std::string padRight(const std::string &s, std::size_t width);

} // namespace g5p

#endif // G5P_BASE_STR_HH
