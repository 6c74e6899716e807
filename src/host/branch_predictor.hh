/**
 * @file
 * Host branch predictor: gshare direction table, BTB, return-address
 * stack, and a tagged indirect-target predictor. Classifies each
 * resolved branch into the paper's front-end latency categories:
 * mispredict resteers, unknown branches (taken branches the BTB could
 * not target at fetch), and correct predictions.
 */

#ifndef G5P_HOST_BRANCH_PREDICTOR_HH
#define G5P_HOST_BRANCH_PREDICTOR_HH

#include <compare>
#include <vector>

#include "base/types.hh"
#include "trace/synthesizer.hh"

namespace g5p::host
{

/** Predictor geometry. */
struct HostBpredGeometry
{
    unsigned tableBits = 14;     ///< gshare 2-bit counters
    unsigned btbEntries = 4096;
    unsigned rasEntries = 16;
    unsigned indirectEntries = 512;

    auto operator<=>(const HostBpredGeometry &) const = default;
};

/** Classification of one resolved branch. */
struct BranchResolution
{
    bool mispredicted = false;   ///< direction or target wrong
    bool unknownBranch = false;  ///< taken, target unknown at fetch
};

class HostBranchPredictor
{
  public:
    explicit HostBranchPredictor(const HostBpredGeometry &geometry);

    /**
     * Predict + train on one branch op; classify the outcome.
     * Deliberately out-of-line: only ~a quarter of ops are branches,
     * and inlining this large body into the batched sink loop bloats
     * the loop past the host's own µop cache (measured slower).
     */
    BranchResolution resolve(const trace::HostOp &op);

  private:
    struct BtbEntry
    {
        HostAddr pc = 0;
        HostAddr target = 0;
        bool valid = false;
    };

    std::size_t gshareIndex(HostAddr pc) const;

    HostBpredGeometry geometry_;
    /** @{ Entry counts are asserted powers of two at construction so
     *  the per-branch table indexing is a mask, not a division. */
    std::size_t btbMask_;
    std::size_t indirectMask_;
    std::size_t rasMask_;
    /** @} */
    std::vector<std::uint8_t> counters_;
    std::vector<BtbEntry> btb_;
    std::vector<BtbEntry> indirect_;
    std::vector<HostAddr> ras_;
    std::size_t rasTop_ = 0;
};

inline std::size_t
HostBranchPredictor::gshareIndex(HostAddr pc) const
{
    // Hashed-PC (bimodal) indexing. Synthetic streams carry per-site
    // bias but no cross-branch correlation, so history bits would
    // only alias well-biased sites apart; a large per-site table is
    // the right stand-in for a modern TAGE-class predictor.
    return ((pc >> 1) ^ ((pc >> 15) << 5)) &
           ((1u << geometry_.tableBits) - 1);
}

} // namespace g5p::host

#endif // G5P_HOST_BRANCH_PREDICTOR_HH
