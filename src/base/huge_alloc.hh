/**
 * @file
 * Transparent-huge-page-backed arena allocator.
 *
 * The paper's §V-A tuning experiment shows THP alone buys ~5.9% on
 * gem5: the simulator's hot data (event pool, decoded-instruction
 * cache) sprawls across enough 4 KiB pages that d-TLB misses become
 * measurable, and 2 MiB pages collapse the walk cost. mg5 applies the
 * same lever to its own hot arenas: ThpArena carves slabs out of
 * 2 MiB-aligned anonymous mappings tagged MADV_HUGEPAGE, so the
 * kernel backs them with huge pages when it can.
 *
 * Fallback contract: everything degrades gracefully. If mmap or
 * madvise is unavailable (non-Linux, sandbox, `G5P_NO_THP=1` in the
 * environment) the arena silently serves ::operator new memory with
 * identical alignment guarantees — callers never observe the
 * difference, only the TLB does. The arena never returns memory to
 * the OS until destruction; it is a grow-only slab source for
 * pool-style consumers that recycle blocks themselves.
 */

#ifndef G5P_BASE_HUGE_ALLOC_HH
#define G5P_BASE_HUGE_ALLOC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace g5p::base
{

/**
 * Grow-only slab arena whose regions are huge-page candidates.
 * Not thread safe: intended to be owned per-thread (EventPool) or
 * per-object (Decoder).
 */
class ThpArena
{
  public:
    /** Size of each mapped region; one host huge page. */
    static constexpr std::size_t regionBytes = 2u << 20;

    /** Alignment of every pointer handed out. */
    static constexpr std::size_t blockAlign = 64;

    ThpArena() = default;
    ~ThpArena();

    ThpArena(const ThpArena &) = delete;
    ThpArena &operator=(const ThpArena &) = delete;

    /**
     * Allocate @p bytes (64-byte aligned) from the current region,
     * mapping a new region when the remainder is too small. Requests
     * larger than regionBytes get a dedicated region of their own.
     * Never fails soft: falls back to ::operator new when mmap does.
     */
    void *allocate(std::size_t bytes);

    /**
     * True when THP backing is compiled in and not disabled via the
     * `G5P_NO_THP` environment variable (checked once per process).
     */
    static bool thpEnabled();

  private:
    struct Region
    {
        void *base = nullptr;
        std::size_t size = 0;
        bool mapped = false; ///< mmap (true) vs ::operator new
    };

    /** Map (or heap-allocate) a region of at least @p bytes. */
    Region mapRegion(std::size_t bytes);

    std::vector<Region> regions_;
    std::byte *cursor_ = nullptr;
    std::size_t remaining_ = 0;
};

/**
 * Minimal C++-Allocator shim over a ThpArena, for grow-only standard
 * containers (the decoder cache). deallocate() is a no-op: freed
 * nodes and superseded bucket arrays stay in the arena until the
 * owning object dies — the right trade for containers that only ever
 * grow, and what keeps the whole structure inside a handful of huge
 * pages instead of scattered across the heap.
 */
template <typename T>
class ArenaAllocator
{
  public:
    using value_type = T;

    explicit ArenaAllocator(ThpArena *arena) noexcept
        : arena_(arena)
    {
    }

    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &other) noexcept
        : arena_(other.arena())
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(arena_->allocate(n * sizeof(T)));
    }

    void deallocate(T *, std::size_t) noexcept {}

    ThpArena *arena() const { return arena_; }

    template <typename U>
    bool
    operator==(const ArenaAllocator<U> &other) const noexcept
    {
        return arena_ == other.arena();
    }

  private:
    ThpArena *arena_;
};

} // namespace g5p::base

#endif // G5P_BASE_HUGE_ALLOC_HH
