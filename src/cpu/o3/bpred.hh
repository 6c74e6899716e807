/**
 * @file
 * Guest-level branch predictor shared by the Minor and O3 CPU models:
 * a gshare-indexed 2-bit counter table plus a direct-mapped BTB and a
 * return-address stack, loosely after gem5's TournamentBP defaults.
 */

#ifndef G5P_CPU_O3_BPRED_HH
#define G5P_CPU_O3_BPRED_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "isa/inst.hh"

namespace g5p::sim
{
class CheckpointIn;
class CheckpointOut;
} // namespace g5p::sim

namespace g5p::cpu
{

/** Predictor geometry. */
struct BpredParams
{
    unsigned tableBits = 12;  ///< 2-bit counters: 2^tableBits entries
    unsigned btbEntries = 1024;
    unsigned rasEntries = 16;
};

class BranchPredictor
{
  public:
    explicit BranchPredictor(const BpredParams &params);

    /** Outcome of a fetch-time lookup. */
    struct Prediction
    {
        Addr npc = 0;        ///< predicted next fetch address
        bool taken = false;  ///< predicted direction (cond branches)
        bool btbHit = false; ///< target known at prediction time
    };

    /**
     * Predict the next fetch address for the (possibly control)
     * instruction at @p pc. @p inst may be null when the fetch engine
     * predicts pre-decode (pure BTB lookup).
     */
    Prediction predict(Addr pc, const isa::StaticInst *inst);

    /** Train with the resolved outcome. */
    void update(Addr pc, bool taken, Addr target,
                const isa::StaticInst &inst);

    /** @{ Checkpointing: write/read into the current section. */
    void serialize(sim::CheckpointOut &cp) const;
    void unserialize(const sim::CheckpointIn &cp);
    /** @} */

  private:
    struct BtbEntry
    {
        Addr pc = 0;
        Addr target = 0;
        bool valid = false;
    };

    std::size_t tableIndex(Addr pc) const;
    std::size_t btbIndex(Addr pc) const;

    BpredParams params_;
    std::vector<std::uint8_t> counters_; ///< 2-bit saturating
    std::vector<BtbEntry> btb_;
    std::vector<Addr> ras_;
    std::size_t rasTop_ = 0;
    std::uint64_t history_ = 0;

    std::uint64_t lookups_ = 0;
    std::uint64_t btbMisses_ = 0;
};

} // namespace g5p::cpu

#endif // G5P_CPU_O3_BPRED_HH
