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

#include "base/anon_mapping.hh"
#include "base/compiler.hh"

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
     * Look up @p tag (below 2^63) in @p set; on a miss, fill the last
     * invalid way, else the least recently used one. @return hit.
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
    /** After a miss, put @p word into the victim way of the set
     *  whose words start at @p words. Out of line: the lookup stays
     *  a scan of the set's words. */
    G5P_NOINLINE void fill(std::uint64_t *words, std::uint64_t word);

    unsigned assoc_;
    unsigned setBits_;
    std::uint64_t setMask_;
    /**
     * One block of 2 * assoc words per set: the set's entries, each
     * `tag << 1 | valid`, then their LRU stamps. A lookup reads only
     * the entries; a hit writes one stamp. Mapped zeros, so only the
     * sets a run touches ever become resident.
     */
    base::AnonMapping block_;
    std::uint64_t lruCounter_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t validEntries_ = 0;
};

inline bool
TagStore::access(std::uint64_t set, std::uint64_t tag)
{
    std::uint64_t *words = block_.data<std::uint64_t>() + set * 2 * assoc_;
    std::uint64_t word = tag << 1 | 1;
    // At most one way holds a tag, so scan every way instead of
    // leaving at the match: which way hits is data, and an early
    // exit would mispredict on it.
    unsigned hit = assoc_;
    for (unsigned w = 0; w < assoc_; ++w)
        hit = words[w] == word ? w : hit;
    if (hit < assoc_) {
        words[assoc_ + hit] = ++lruCounter_;
        ++hits_;
        return true;
    }
    fill(words, word);
    return false;
}

} // namespace g5p::host

#endif // G5P_HOST_TAG_STORE_HH
