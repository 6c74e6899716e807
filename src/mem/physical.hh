/**
 * @file
 * PhysicalMemory: the functional backing store for guest memory.
 *
 * All byte data lives here (see mem/packet.hh for the timing/functional
 * split). The backing array registers itself with the host-trace
 * DataSpace, so every guest byte has a stable host address — when mg5
 * touches guest memory, the host d-cache model sees the touch at the
 * corresponding address. This reproduces the paper's observation that
 * gem5's dynamic working set grows only as fast as the simulated
 * workload touches new pages (§IV-A).
 *
 * The array is an anonymous mapping (base/anon_mapping.hh), as in
 * gem5, so mg5's own footprint grows the same way: building a machine
 * costs no host page until the guest touches it.
 */

#ifndef G5P_MEM_PHYSICAL_HH
#define G5P_MEM_PHYSICAL_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "base/anon_mapping.hh"
#include "base/logging.hh"
#include "sim/sim_object.hh"

namespace g5p::mem
{

class PhysicalMemory : public sim::SimObject
{
  public:
    PhysicalMemory(sim::Simulator &sim, const std::string &name,
                   std::uint64_t size_bytes);

    std::uint64_t size() const { return data_.size(); }

    /**
     * Read up to 8 bytes (little endian) at @p addr.
     *
     * Defined inline: every simulated instruction fetch and data
     * access funnels through here, and the call overhead alone was
     * visible in whole-run profiles.
     */
    std::uint64_t
    read(Addr addr, unsigned size) const
    {
        G5P_TRACE_SCOPE("PhysicalMemory::read", MemAccess, false);
        checkRange(addr, size);
        touch(addr);
        trace::recordData(hostBase_ + addr, size, false);
        std::uint64_t v = 0;
        std::memcpy(&v, data_.data() + addr, size);
        statReads_ += 1;
        return v;
    }

    /** Write up to 8 bytes at @p addr. */
    void
    write(Addr addr, unsigned size, std::uint64_t value)
    {
        G5P_TRACE_SCOPE("PhysicalMemory::write", MemAccess, false);
        checkRange(addr, size);
        touch(addr);
        trace::recordData(hostBase_ + addr, size, true);
        std::memcpy(data_.data() + addr, &value, size);
        statWrites_ += 1;
    }

    /** Bulk load (program images). */
    void writeBlock(Addr addr, const void *src, std::size_t len);

    /**
     * Non-instrumented read: no stats, no page touch, no host-trace
     * record. For checkpoint restore (re-decoding pipeline contents)
     * and test digests, where an observing read must not perturb the
     * simulation.
     */
    std::uint64_t peek(Addr addr, unsigned size) const;

    /**
     * FNV-1a digest over every touched page (index and bytes).
     * Non-instrumented, like peek().
     */
    std::uint64_t contentDigest() const;

    /**
     * Flip one bit of the backing store without stats, page touch or
     * host-trace side effects: models a soft error striking DRAM
     * behind the simulation's back (used by the FaultInjector).
     * @return the byte value after the flip.
     */
    std::uint8_t flipBit(Addr addr, unsigned bit);

    /** Number of distinct 4KB pages ever touched. */
    std::uint64_t pagesTouched() const { return pagesTouched_; }

    /** The host mapping behind guest memory (for residency checks). */
    const base::AnonMapping &backing() const { return data_; }

    void serialize(sim::CheckpointOut &cp) const override;
    void unserialize(const sim::CheckpointIn &cp) override;

    void regStats() override;

  private:
    static constexpr unsigned pageShift = 12; // 4KB guest pages

    void
    checkRange(Addr addr, unsigned size) const
    {
        g5p_assert(size > 0 && size <= 8, "bad access size %u", size);
        g5p_assert(addr + size <= data_.size(),
                   "physical access out of range: %#llx+%u > %#llx",
                   (unsigned long long)addr, size,
                   (unsigned long long)data_.size());
    }

    void
    touch(Addr addr) const
    {
        std::uint64_t page = addr >> pageShift;
        if (!touchedPages_[page]) {
            touchedPages_[page] = true;
            ++pagesTouched_;
        }
    }

    /** Guest bytes: zero until written, host-resident once touched. */
    base::AnonMapping data_;
    mutable std::vector<bool> touchedPages_;
    mutable std::uint64_t pagesTouched_ = 0;
    HostAddr hostBase_;

    mutable sim::stats::Scalar statReads_;
    mutable sim::stats::Scalar statWrites_;
    sim::stats::Formula statPagesTouched_;
};

} // namespace g5p::mem

#endif // G5P_MEM_PHYSICAL_HH
