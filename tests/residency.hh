/**
 * @file
 * Test helper: how many pages of a host range the kernel holds in
 * memory, by mincore(2). Used to check that a lazily zeroed array
 * costs only the pages a run touches.
 */

#ifndef G5P_TESTS_RESIDENCY_HH
#define G5P_TESTS_RESIDENCY_HH

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

namespace g5p::test
{

inline std::size_t
hostPageBytes()
{
    return (std::size_t)::sysconf(_SC_PAGESIZE);
}

/** Resident pages of [@p data, @p data + @p bytes); page aligned. */
inline std::size_t
residentPages(const void *data, std::size_t bytes)
{
    std::size_t page = hostPageBytes();
    std::vector<unsigned char> vec((bytes + page - 1) / page);
    EXPECT_EQ(::mincore(const_cast<void *>(data), bytes, vec.data()),
              0);
    return (std::size_t)std::count_if(
        vec.begin(), vec.end(), [](unsigned char v) { return v & 1; });
}

} // namespace g5p::test

#endif // G5P_TESTS_RESIDENCY_HH
