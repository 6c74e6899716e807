/**
 * @file
 * DSB (Decoded Stream Buffer / µop cache) model.
 *
 * Real DSBs cache decoded µops for 32-byte code windows; fetch windows
 * that hit skip the legacy decoders (MITE). The paper's Fig. 5/6 show
 * gem5's DSB coverage is very low — its instruction working set is far
 * larger than the DSB — which is reproduced here structurally: windows
 * compete for a small set-associative array. On machines without a
 * µop cache (Apple M1), construct with zero windows; every window then
 * reports a miss and decode-bandwidth modeling falls entirely to the
 * (wide) MITE path.
 */

#ifndef G5P_HOST_DSB_HH
#define G5P_HOST_DSB_HH

#include <compare>
#include <optional>

#include "base/types.hh"
#include "host/tag_store.hh"

namespace g5p::host
{

/** DSB geometry (Cascade Lake-ish defaults). */
struct DsbGeometry
{
    unsigned windows = 512; ///< total 32B-window entries (0 = none)
    unsigned assoc = 8;

    /**
     * Fraction (percent) of code windows that can never live in the
     * DSB: real µop caches reject windows exceeding their per-window
     * µop/branch limits, which branchy simulator code hits often.
     */
    unsigned ineligiblePct = 25;

    auto operator<=>(const DsbGeometry &) const = default;
};

class DsbModel
{
  public:
    explicit DsbModel(const DsbGeometry &geometry);

    /** Window size covered by one entry. */
    static constexpr unsigned windowBytes = 32;

    /**
     * Look up the window containing @p pc. A miss fills the entry
     * (the window gets decoded by MITE and inserted). @return hit.
     * Inline below so the batched sink loop can fuse it.
     */
    bool access(HostAddr pc);

    bool enabled() const { return tags_.has_value(); }

    std::uint64_t hits() const { return tags_ ? tags_->hits() : 0; }

    std::uint64_t
    misses() const
    {
        return rejected_ + (tags_ ? tags_->misses() : 0);
    }

  private:
    unsigned ineligiblePct_;
    /** Lookups that never reach the array: no µop cache, or a window
     *  the DSB cannot hold. */
    std::uint64_t rejected_ = 0;
    /** Empty on machines without a µop cache. */
    std::optional<TagStore> tags_;
};

inline bool
DsbModel::access(HostAddr pc)
{
    std::uint64_t window = pc / windowBytes;

    // Per-window eligibility is a fixed property of the code.
    std::uint64_t h = window * 0x9e3779b97f4a7c15ULL;
    if (!tags_ || (h >> 33) % 100 < ineligiblePct_) {
        ++rejected_;
        return false;
    }
    return tags_->access(tags_->setOf(window), tags_->tagOf(window));
}

} // namespace g5p::host

#endif // G5P_HOST_DSB_HH
