/**
 * @file
 * Machine-word decoder with a gem5-style decode cache: every distinct
 * raw instruction word is decoded once into a shared StaticInst.
 */

#ifndef G5P_ISA_DECODER_HH
#define G5P_ISA_DECODER_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "base/huge_alloc.hh"
#include "isa/inst.hh"

namespace g5p::isa
{

/**
 * Decodes raw 64-bit words into StaticInst objects. Each CPU owns a
 * Decoder; the cache makes repeated decode of hot code cheap, exactly
 * as gem5's decode cache does.
 */
class Decoder
{
  public:
    Decoder() : cache_(initialCacheBuckets, Hash{}, Eq{},
                       Alloc{&arena_})
    {
    }

    /** Decode @p word, reusing the cached StaticInst if present.
     *  Returns a reference into the decode cache (stable until the
     *  cache is cleared), so hot fetch loops skip the shared_ptr
     *  refcount round-trip; copy into a StaticInstPtr to keep the
     *  instruction past the decoder's lifetime. */
    const StaticInstPtr &decode(std::uint64_t word);

    /** Number of distinct words decoded. */
    std::size_t cacheSize() const { return cache_.size(); }

    /** Total decode() calls. */
    std::uint64_t numDecodes() const { return numDecodes_; }

    /** Decode-cache hits. */
    std::uint64_t numCacheHits() const { return numCacheHits_; }

    /** Build a StaticInst without caching (tests, disassembly). */
    static StaticInstPtr decodeOne(std::uint64_t word);

    /**
     * Cache-filling decode that leaves the hit/decode counters
     * untouched. Checkpoint restore re-decodes pipeline contents
     * through this path, then restores the counters exactly.
     */
    StaticInstPtr decodeQuiet(std::uint64_t word);

    /** All cached words, sorted (checkpointing). */
    std::vector<std::uint64_t> cachedWords() const;

    /** Force the counters (checkpoint restore). */
    void
    setCounters(std::uint64_t decodes, std::uint64_t hits)
    {
        numDecodes_ = decodes;
        numCacheHits_ = hits;
    }

  private:
    /** Pre-sized for a typical hot working set of distinct words,
     *  avoiding rehash storms while the cache warms up. */
    static constexpr std::size_t initialCacheBuckets = 1024;

    using Hash = std::hash<std::uint64_t>;
    using Eq = std::equal_to<std::uint64_t>;
    using Alloc = base::ArenaAllocator<
        std::pair<const std::uint64_t, StaticInstPtr>>;

    /**
     * Backing for the decode cache's nodes and bucket arrays. The
     * cache is the paper's poster-child hot structure (gem5's decode
     * cache is what the §V-A THP experiment mostly helps), and it
     * only ever grows — a huge-page bump arena fits exactly.
     * Declared before cache_ so it outlives the map.
     */
    base::ThpArena arena_;

    std::unordered_map<std::uint64_t, StaticInstPtr, Hash, Eq,
                       Alloc> cache_;
    std::uint64_t numDecodes_ = 0;
    std::uint64_t numCacheHits_ = 0;
};

} // namespace g5p::isa

#endif // G5P_ISA_DECODER_HH
