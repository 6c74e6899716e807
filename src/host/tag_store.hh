/**
 * @file
 * The set-associative LRU tag array behind every host structure that
 * caches by key: HostCache (lines), HostTlb (size-tagged pages) and
 * DsbModel (32-byte code windows). Each owner maps its key onto a
 * (set, tag) pair; this class holds the entries, the one lookup and
 * replacement loop, and the hit/miss/occupancy counters.
 */

#ifndef G5P_HOST_TAG_STORE_HH
#define G5P_HOST_TAG_STORE_HH

#include <cstdint>
#include <vector>

namespace g5p::host
{

class TagStore
{
  public:
    /**
     * @param sets number of sets; must be a nonzero power of two
     * @param assoc ways per set
     * @param what structure name for the geometry check's message
     */
    TagStore(std::uint64_t sets, unsigned assoc, const char *what);

    /** @{ Split a key whose low bits select the set. */
    std::uint64_t setOf(std::uint64_t key) const { return key & setMask_; }
    std::uint64_t tagOf(std::uint64_t key) const { return key >> setBits_; }
    /** @} */

    /**
     * Look up @p tag in @p set; on a miss, fill the last invalid way,
     * else the least recently used one. @return hit.
     *
     * Defined inline below: this is the innermost step of the
     * per-instruction model chain, and the batched sink loop
     * (HostCore::ops) relies on the whole chain being visible for
     * inlining.
     */
    bool access(std::uint64_t set, std::uint64_t tag);

    /** Look up without allocating (probes). */
    bool contains(std::uint64_t set, std::uint64_t tag) const;

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t validEntries() const { return validEntries_; }

  private:
    struct Entry
    {
        std::uint64_t tag = 0;
        bool valid = false;
        std::uint64_t lastUsed = 0;
    };

    unsigned assoc_;
    unsigned setBits_;
    std::uint64_t setMask_;
    std::vector<Entry> entries_;
    std::uint64_t lruCounter_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t validEntries_ = 0;
};

inline bool
TagStore::access(std::uint64_t set, std::uint64_t tag)
{
    Entry *base = &entries_[set * assoc_];
    Entry *victim = base;
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &entry = base[w];
        if (entry.valid && entry.tag == tag) {
            entry.lastUsed = ++lruCounter_;
            ++hits_;
            return true;
        }
        if (!entry.valid) {
            victim = &entry;
        } else if (victim->valid &&
                   entry.lastUsed < victim->lastUsed) {
            victim = &entry;
        }
    }

    ++misses_;
    if (!victim->valid)
        ++validEntries_;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUsed = ++lruCounter_;
    return false;
}

} // namespace g5p::host

#endif // G5P_HOST_TAG_STORE_HH
