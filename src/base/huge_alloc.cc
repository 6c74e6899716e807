#include "base/huge_alloc.hh"

#include <cstdlib>
#include <new>

#if defined(__linux__)
#  include <sys/mman.h>
#  include <unistd.h>
#  define G5P_HAVE_MMAP 1
#else
#  define G5P_HAVE_MMAP 0
#endif

namespace g5p::base
{

bool
ThpArena::thpEnabled()
{
    static const bool enabled = [] {
#if G5P_HAVE_MMAP
        const char *kill = std::getenv("G5P_NO_THP");
        return !(kill && kill[0] == '1');
#else
        return false;
#endif
    }();
    return enabled;
}

ThpArena::Region
ThpArena::mapRegion(std::size_t bytes)
{
    // Round to whole huge pages so the aligned mapping is a clean
    // MADV_HUGEPAGE candidate end to end.
    std::size_t size = (bytes + regionBytes - 1) / regionBytes *
                       regionBytes;
    Region region;
    region.size = size;

#if G5P_HAVE_MMAP
    if (thpEnabled()) {
        // Over-map by one huge page, then trim both ends, to get a
        // 2 MiB-aligned base without MAP_ALIGNED (not portable) or
        // relying on mmap's default placement.
        std::size_t span = size + regionBytes;
        void *raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (raw != MAP_FAILED) {
            auto addr = reinterpret_cast<std::uintptr_t>(raw);
            std::uintptr_t aligned =
                (addr + regionBytes - 1) & ~(std::uintptr_t)
                (regionBytes - 1);
            std::size_t head = aligned - addr;
            std::size_t tail = span - head - size;
            if (head)
                ::munmap(raw, head);
            if (tail)
                ::munmap(reinterpret_cast<void *>(aligned + size),
                         tail);
            region.base = reinterpret_cast<void *>(aligned);
            region.mapped = true;
#ifdef MADV_HUGEPAGE
            ::madvise(region.base, size, MADV_HUGEPAGE);
#endif
            return region;
        }
    }
#endif

    // Graceful fallback: plain heap memory, same alignment contract.
    region.base = ::operator new(size, std::align_val_t{blockAlign});
    region.mapped = false;
    return region;
}

void *
ThpArena::allocate(std::size_t bytes)
{
    std::size_t need = (bytes + blockAlign - 1) & ~(blockAlign - 1);

    if (need > regionBytes) {
        // Oversized request: dedicated region, current cursor kept.
        Region region = mapRegion(need);
        regions_.push_back(region);
        return region.base;
    }

    if (need > remaining_) {
        Region region = mapRegion(regionBytes);
        regions_.push_back(region);
        cursor_ = static_cast<std::byte *>(region.base);
        remaining_ = region.size;
    }

    void *out = cursor_;
    cursor_ += need;
    remaining_ -= need;
    return out;
}

ThpArena::~ThpArena()
{
    for (const Region &region : regions_) {
#if G5P_HAVE_MMAP
        if (region.mapped) {
            ::munmap(region.base, region.size);
            continue;
        }
#endif
        ::operator delete(region.base,
                          std::align_val_t{blockAlign});
    }
}

} // namespace g5p::base
