#include "host/branch_predictor.hh"

#include "base/addr_utils.hh"
#include "base/logging.hh"

namespace g5p::host
{

HostBranchPredictor::HostBranchPredictor(
    const HostBpredGeometry &geometry)
    : geometry_(geometry),
      btbMask_(geometry.btbEntries - 1),
      indirectMask_(geometry.indirectEntries - 1),
      rasMask_(geometry.rasEntries - 1),
      counters_(1u << geometry.tableBits, 1),
      btb_(geometry.btbEntries),
      indirect_(geometry.indirectEntries),
      ras_(geometry.rasEntries, 0)
{
    g5p_assert(isPowerOf2(geometry.btbEntries) &&
                   isPowerOf2(geometry.indirectEntries) &&
                   isPowerOf2(geometry.rasEntries),
               "predictor table sizes must be powers of two "
               "(btb %u, indirect %u, ras %u)",
               geometry.btbEntries, geometry.indirectEntries,
               geometry.rasEntries);
}

BranchResolution
HostBranchPredictor::resolve(const trace::HostOp &op)
{
    BranchResolution res;

    // The RAS is circular: overflow overwrites the oldest entry, as
    // real return stacks do, so deep call chains degrade gracefully
    // instead of desynchronizing push/pop.
    auto ras_push = [this](HostAddr addr) {
        ras_[rasTop_ & rasMask_] = addr;
        ++rasTop_;
    };
    auto ras_pop = [this]() -> HostAddr {
        if (rasTop_ == 0)
            return 0;
        --rasTop_;
        return ras_[rasTop_ & rasMask_];
    };

    if (op.isReturn) {
        res.mispredicted = ras_pop() != op.target;
        return res;
    }

    if (op.indirect) {
        // Per-PC tagged indirect-target table. Virtual call sites
        // that dispatch to several receivers thrash their entry —
        // the paper's "abundance of virtual functions" cost.
        std::size_t idx = (op.pc >> 1) & indirectMask_;
        BtbEntry &entry = indirect_[idx];
        res.mispredicted = !(entry.valid && entry.pc == op.pc &&
                             entry.target == op.target);
        entry.valid = true;
        entry.pc = op.pc;
        entry.target = op.target;
        if (op.isCall)
            ras_push(op.pc + op.lenBytes);
        return res;
    }

    if (op.isCall) {
        // Direct call: always taken; needs a BTB target at fetch.
        std::size_t idx = (op.pc >> 1) & btbMask_;
        BtbEntry &entry = btb_[idx];
        res.unknownBranch = !(entry.valid && entry.pc == op.pc);
        entry.valid = true;
        entry.pc = op.pc;
        entry.target = op.target;
        ras_push(op.pc + op.lenBytes);
        return res;
    }

    // Conditional branch: gshare direction, BTB target when taken.
    std::uint8_t &ctr = counters_[gshareIndex(op.pc)];
    bool pred_taken = ctr >= 2;
    if (pred_taken != op.taken) {
        res.mispredicted = true;
    } else if (op.taken) {
        std::size_t idx = (op.pc >> 1) & btbMask_;
        const BtbEntry &entry = btb_[idx];
        res.unknownBranch = !(entry.valid && entry.pc == op.pc &&
                              entry.target == op.target);
    }

    // Train.
    if (op.taken && ctr < 3)
        ++ctr;
    else if (!op.taken && ctr > 0)
        --ctr;
    if (op.taken) {
        std::size_t idx = (op.pc >> 1) & btbMask_;
        btb_[idx] = BtbEntry{op.pc, op.target, true};
    }
    return res;
}

} // namespace g5p::host
