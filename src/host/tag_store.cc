#include "host/tag_store.hh"

#include "base/addr_utils.hh"
#include "base/logging.hh"

namespace g5p::host
{

TagStore::TagStore(std::uint64_t sets, unsigned assoc, const char *what)
    : assoc_(assoc)
{
    g5p_assert(isPowerOf2(sets) && assoc > 0,
               "%s sets (%llu) must be a power of two (%u ways)", what,
               (unsigned long long)sets, assoc);
    setBits_ = floorLog2(sets);
    setMask_ = sets - 1;
    // calloc: a large block comes straight from the kernel already
    // zeroed, so only the sets a run touches ever become resident.
    block_.reset(static_cast<std::uint64_t *>(
        std::calloc(sets * 2 * assoc, sizeof(std::uint64_t))));
    g5p_assert(block_, "%s: cannot allocate %llu sets", what,
               (unsigned long long)sets);
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
    const std::uint64_t *words = &block_[set * 2 * assoc_];
    for (unsigned w = 0; w < assoc_; ++w)
        if (words[w] == (tag << 1 | 1))
            return true;
    return false;
}

} // namespace g5p::host
