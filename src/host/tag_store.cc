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
    entries_.resize(sets * assoc);
}

bool
TagStore::contains(std::uint64_t set, std::uint64_t tag) const
{
    const Entry *base = &entries_[set * assoc_];
    for (unsigned w = 0; w < assoc_; ++w)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

} // namespace g5p::host
