#include "host/tag_store.hh"

#include "base/addr_utils.hh"
#include "base/logging.hh"

namespace g5p::host
{

namespace
{

/** Bytes of a block of @p sets sets, after the geometry check, so a
 *  bad geometry fails with its own message and not a failed map. */
std::size_t
blockBytes(std::uint64_t sets, unsigned assoc, const char *what)
{
    g5p_assert(isPowerOf2(sets) && assoc > 0,
               "%s sets (%llu) must be a power of two (%u ways)", what,
               (unsigned long long)sets, assoc);
    return sets * 2 * assoc * sizeof(std::uint64_t);
}

} // namespace

// The block is mapped, not calloc'd: calloc leaves untouched sets
// non-resident only until glibc has freed a block that size, and
// zero-fills every later one (DESIGN.md "Where the big arrays live").
TagStore::TagStore(std::uint64_t sets, unsigned assoc, const char *what)
    : assoc_(assoc), block_(blockBytes(sets, assoc, what))
{
    setBits_ = floorLog2(sets);
    setMask_ = sets - 1;
}

void
TagStore::fill(std::uint64_t *words, std::uint64_t word)
{
    std::uint64_t *stamps = words + assoc_;
    unsigned victim = 0;
    bool invalid = false;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (!(words[w] & 1)) {
            victim = w;
            invalid = true;
        } else if (!invalid && stamps[w] < stamps[victim]) {
            victim = w;
        }
    }

    ++misses_;
    if (invalid)
        ++validEntries_;
    words[victim] = word;
    stamps[victim] = ++lruCounter_;
}

bool
TagStore::contains(std::uint64_t set, std::uint64_t tag) const
{
    const std::uint64_t *words =
        block_.data<std::uint64_t>() + set * 2 * assoc_;
    for (unsigned w = 0; w < assoc_; ++w)
        if (words[w] == (tag << 1 | 1))
            return true;
    return false;
}

} // namespace g5p::host
