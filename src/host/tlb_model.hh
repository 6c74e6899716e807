/**
 * @file
 * Host TLB model with mixed page sizes.
 *
 * A PageSizePolicy assigns each host virtual address a page size
 * (base pages by default; 16KB on Apple M1; 2MB where huge pages back
 * the mg5 binary — the paper's §V-A THP/EHP experiments). The TLB
 * indexes by (page number, size class), so huge pages increase reach
 * exactly as on real hardware.
 */

#ifndef G5P_HOST_TLB_MODEL_HH
#define G5P_HOST_TLB_MODEL_HH

#include <compare>
#include <vector>

#include "base/types.hh"
#include "host/tag_store.hh"

namespace g5p::host
{

/** Page-size classes the model distinguishes. */
enum class PageClass : std::uint8_t
{
    Base,   ///< platform base page (4KB Xeon / 16KB M1)
    Huge,   ///< 2MB huge page
};

/**
 * Maps addresses to page sizes. `hugeCoverage` backs that fraction of
 * the [start, end) region with huge pages, deterministically by page
 * number — modeling THP's partial, chunk-granular remapping.
 */
class PageSizePolicy
{
  public:
    /** @param base_page_bits log2 of the platform base page. */
    explicit PageSizePolicy(unsigned base_page_bits = 12)
        : basePageBits_(base_page_bits)
    {}

    /** Back [start,end) with huge pages at @p coverage in [0,1]. */
    void addHugeRegion(HostAddr start, HostAddr end, double coverage);

    /** Page bits for @p addr (base or hugePageBits for 2MB).
     *  Inline below: runs on every TLB lookup. */
    unsigned pageBits(HostAddr addr) const;

    /** log2 of a 2MB huge page. */
    static constexpr unsigned hugePageBits = 21;

  private:
    struct Region
    {
        HostAddr start;
        HostAddr end;
        std::uint32_t coveragePct; ///< 0..100
    };

    unsigned basePageBits_;
    std::vector<Region> regions_;
};

/** TLB geometry. */
struct HostTlbGeometry
{
    unsigned entries = 128;
    unsigned assoc = 8;

    auto operator<=>(const HostTlbGeometry &) const = default;
};

class HostTlb
{
  public:
    HostTlb(const HostTlbGeometry &geometry,
            const PageSizePolicy *policy);

    /** Look up the page of @p addr; allocates on miss. @return hit.
     *  Inline below so the batched sink loop can fuse it. */
    bool access(HostAddr addr);

    std::uint64_t hits() const { return tags_.hits(); }
    std::uint64_t misses() const { return tags_.misses(); }

    double
    missRate() const
    {
        std::uint64_t total = hits() + misses();
        return total ? (double)misses() / (double)total : 0.0;
    }

  private:
    const PageSizePolicy *policy_;
    TagStore tags_;
};

inline unsigned
PageSizePolicy::pageBits(HostAddr addr) const
{
    for (const Region &region : regions_) {
        if (addr < region.start || addr >= region.end)
            continue;
        if (region.coveragePct >= 100)
            return hugePageBits;
        // Which text got promoted is decided at iodlr-region
        // granularity (finer than 2MB: our modeled binaries are
        // orders of magnitude smaller than gem5's ~100MB text, so
        // per-2MB-chunk coverage would round to all-or-nothing).
        std::uint64_t chunk = addr >> 17; // 128KB decision regions
        std::uint64_t h = chunk * 0x9e3779b97f4a7c15ULL;
        if ((h >> 32) % 100 < region.coveragePct)
            return hugePageBits;
        return basePageBits_;
    }
    return basePageBits_;
}

inline bool
HostTlb::access(HostAddr addr)
{
    unsigned bits = policy_->pageBits(addr);
    // Tag: the whole page number tagged with its size class, so a
    // 2MB entry is distinct from 4KB entries over the same range. The
    // set comes from the page number alone.
    std::uint64_t page = addr >> bits;
    return tags_.access(tags_.setOf(page), (page << 6) | bits);
}

} // namespace g5p::host

#endif // G5P_HOST_TLB_MODEL_HH
