/**
 * @file
 * Free-list pool for timing-path Packets, the mem-layer sibling of
 * sim::EventPool.
 *
 * The detailed models allocate and free one Packet per cache/xbar/
 * DRAM transaction — on a Timing L1 hit that is a third of the heap
 * traffic of the whole instruction (the other two thirds being the
 * two transient events, which PR 1 already pooled). Routing Packets
 * through the global allocator is pure churn: every block is the
 * same size and is freed on the thread that allocated it.
 *
 * Like the event pool, arenas are thread-local (a simulation is
 * confined to one thread; the parallel harness runs one whole
 * simulation per worker), slabs come from a huge-page-backed
 * ThpArena, and steady-state allocation touches no allocator at all.
 *
 * Ownership rule (unchanged from the heap days): exactly one owner
 * holds a PacketPtr at any time — the pending delivery event, the
 * MSHR/deferred queue it is parked on, or the CPU that just received
 * it — and that owner deletes it. The pool adds the enforcement the
 * heap never had: outstanding() must return to its baseline at every
 * quiescent point and at Simulator teardown (asserted there), so a
 * leaked packet fails loudly at its source.
 */

#ifndef G5P_MEM_PACKET_POOL_HH
#define G5P_MEM_PACKET_POOL_HH

#include <cstddef>

#include "base/compiler.hh"

namespace g5p::mem
{

class PacketPool
{
  public:
    /** Block size covering Packet (with its intrusive queue link). */
    static constexpr std::size_t blockSize = 64;
    /** Blocks carved per slab (8 KiB slabs). */
    static constexpr std::size_t slabBlocks = 128;

    /** Pop a block (grows by one slab when the free list is empty). */
    G5P_HOT static void *allocate(std::size_t size);

    /** Push a block back onto the free list. */
    G5P_HOT static void deallocate(void *p, std::size_t size) noexcept;

    /** Packets allocated and not yet freed (calling thread). */
    static std::size_t outstanding();

    /**
     * Peak outstanding() since the last resetHighWater() — the
     * maximum number of simultaneously in-flight packets, i.e. the
     * pool's real working set. Surfaced by --profile runs.
     */
    static std::size_t highWater();

    /** Restart high-water tracking from the current outstanding()
     *  (each Simulator resets it so sweeps report per-run peaks). */
    static void resetHighWater();

    /** Slabs this thread carved from its arena so far. */
    static std::size_t slabsAllocated();
};

} // namespace g5p::mem

#endif // G5P_MEM_PACKET_POOL_HH
