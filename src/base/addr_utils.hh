/**
 * @file
 * Address arithmetic helpers shared by guest and host memory models.
 */

#ifndef G5P_BASE_ADDR_UTILS_HH
#define G5P_BASE_ADDR_UTILS_HH

#include <bit>
#include <cstdint>

#include "base/types.hh"

namespace g5p
{

/** True iff @p v is a power of two (and nonzero). */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)); v must be nonzero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned l = 0;
    while (v >>= 1)
        ++l;
    return l;
}

/** ceil(log2(v)). */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return isPowerOf2(v) ? floorLog2(v) : floorLog2(v) + 1;
}

/** Round @p a down to a multiple of power-of-two @p align. */
constexpr Addr
alignDown(Addr a, std::uint64_t align)
{
    return a & ~(align - 1);
}

/** Round @p a up to a multiple of power-of-two @p align. */
constexpr Addr
alignUp(Addr a, std::uint64_t align)
{
    return (a + align - 1) & ~(align - 1);
}

/**
 * Extract the set index for a cache with the given geometry. Both
 * dimensions must be nonzero powers of two — every cache/TLB asserts
 * that at construction, so the per-access path is pure shift/mask
 * (one guest memory access runs several of these; a hardware divide
 * here was a top-ten profile entry).
 */
inline std::uint64_t
cacheSetIndex(Addr a, unsigned line_bytes, unsigned num_sets)
{
    return (a >> std::countr_zero(line_bytes)) & (num_sets - 1);
}

/** Extract the tag for a cache with the given geometry. */
inline std::uint64_t
cacheTag(Addr a, unsigned line_bytes, unsigned num_sets)
{
    return a >> (std::countr_zero(line_bytes) +
                 std::countr_zero(num_sets));
}

} // namespace g5p

#endif // G5P_BASE_ADDR_UTILS_HH
