#include "mem/packet_pool.hh"

#include <new>

#include "base/huge_alloc.hh"
#include "sim/simulator.hh"

namespace g5p::mem
{

namespace
{

/**
 * Per-thread pool state, mirroring sim::EventPool's PoolState: an
 * intrusive free list over fixed-size blocks carved from THP-backed
 * slabs, retained for the thread lifetime and released at thread
 * exit only when nothing is outstanding.
 */
struct PoolState
{
    struct FreeNode
    {
        FreeNode *next;
    };

    FreeNode *freeList = nullptr;
    std::size_t outstanding = 0;
    std::size_t highWater = 0;
    std::size_t slabCount = 0;
    base::ThpArena *arena = new base::ThpArena;

    void
    grow()
    {
        auto *slab = static_cast<unsigned char *>(arena->allocate(
            PacketPool::blockSize * PacketPool::slabBlocks));
        ++slabCount;
        for (std::size_t i = 0; i < PacketPool::slabBlocks; ++i) {
            auto *node = reinterpret_cast<FreeNode *>(
                slab + i * PacketPool::blockSize);
            node->next = freeList;
            freeList = node;
        }
    }

    ~PoolState()
    {
        // A packet still outstanding at thread exit would mean it
        // outlived its thread; leak the arena rather than unmap
        // memory someone may still hold.
        if (outstanding != 0)
            return;
        delete arena;
    }

    static PoolState &
    instance()
    {
        static thread_local PoolState state;
        return state;
    }
};

} // namespace

void *
PacketPool::allocate(std::size_t size)
{
    auto &pool = PoolState::instance();
    if (++pool.outstanding > pool.highWater)
        pool.highWater = pool.outstanding;
    if (G5P_UNLIKELY(size > blockSize))
        return ::operator new(size);
    if (G5P_UNLIKELY(!pool.freeList))
        pool.grow();
    auto *node = pool.freeList;
    pool.freeList = node->next;
    return node;
}

void
PacketPool::deallocate(void *p, std::size_t size) noexcept
{
    auto &pool = PoolState::instance();
    --pool.outstanding;
    if (G5P_UNLIKELY(size > blockSize)) {
        ::operator delete(p);
        return;
    }
    auto *node = static_cast<PoolState::FreeNode *>(p);
    node->next = pool.freeList;
    pool.freeList = node;
}

std::size_t
PacketPool::outstanding()
{
    return PoolState::instance().outstanding;
}

std::size_t
PacketPool::highWater()
{
    return PoolState::instance().highWater;
}

void
PacketPool::resetHighWater()
{
    auto &pool = PoolState::instance();
    pool.highWater = pool.outstanding;
}

std::size_t
PacketPool::slabsAllocated()
{
    return PoolState::instance().slabCount;
}

namespace
{

/**
 * Let the Simulator assert the pool drains at quiescent points and
 * at teardown. Registered from this TU (linked into anything that
 * uses Packet) so sim/ never depends on mem/; the probe target is a
 * constant-initialized pointer, so static-init order is immaterial.
 */
[[maybe_unused]] const bool drainProbeRegistered = [] {
    sim::setTransientResourceProbe(
        [] { return (std::uint64_t)PacketPool::outstanding(); });
    return true;
}();

} // namespace

} // namespace g5p::mem
