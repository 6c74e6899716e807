#include "mem/physical.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"

namespace g5p::mem
{

PhysicalMemory::PhysicalMemory(sim::Simulator &sim,
                               const std::string &name,
                               std::uint64_t size_bytes)
    : sim::SimObject(sim, name, nullptr, /* descriptor only */ 128),
      data_(size_bytes),
      touchedPages_((size_bytes >> pageShift) + 1, false)
{
    // The array itself is the dominant simulator data structure;
    // register it so host-side data refs land inside it.
    hostBase_ = trace::DataSpace::instance().alloc(size_bytes);
}

std::uint64_t
PhysicalMemory::peek(Addr addr, unsigned size) const
{
    checkRange(addr, size);
    std::uint64_t v = 0;
    std::memcpy(&v, data_.data() + addr, size);
    return v;
}

std::uint8_t
PhysicalMemory::flipBit(Addr addr, unsigned bit)
{
    checkRange(addr, 1);
    g5p_assert(bit < 8, "flipBit: bit index %u out of range", bit);
    std::uint8_t *byte = data_.data() + addr;
    *byte ^= (std::uint8_t)(1u << bit);
    return *byte;
}

std::uint64_t
PhysicalMemory::contentDigest() const
{
    std::uint64_t hash = 14695981039346656037ULL;
    auto mix = [&hash](std::uint8_t byte) {
        hash = (hash ^ byte) * 1099511628211ULL;
    };
    for (std::uint64_t p = 0; p < touchedPages_.size(); ++p) {
        if (!touchedPages_[p])
            continue;
        for (unsigned i = 0; i < 8; ++i)
            mix((std::uint8_t)(p >> (8 * i)));
        const std::uint8_t *page = data_.data() + (p << pageShift);
        std::uint64_t bytes = std::min<std::uint64_t>(
            std::uint64_t{1} << pageShift,
            data_.size() - (p << pageShift));
        for (std::uint64_t i = 0; i < bytes; ++i)
            mix(page[i]);
    }
    return hash;
}

void
PhysicalMemory::writeBlock(Addr addr, const void *src, std::size_t len)
{
    g5p_assert(addr + len <= data_.size(),
               "writeBlock out of range");
    std::memcpy(data_.data() + addr, src, len);
    for (Addr a = addr; a < addr + len; a += (1u << pageShift))
        touch(a);
}

void
PhysicalMemory::serialize(sim::CheckpointOut &cp) const
{
    // Store only touched pages, as gem5 compresses checkpoints.
    cp.param("size", data_.size());
    std::vector<std::uint64_t> pages;
    for (std::uint64_t p = 0; p < touchedPages_.size(); ++p)
        if (touchedPages_[p])
            pages.push_back(p);
    cp.paramVector("touchedPages", pages);
    for (std::uint64_t p : pages) {
        std::vector<std::uint64_t> words((1u << pageShift) / 8);
        std::memcpy(words.data(), data_.data() + (p << pageShift),
                    1u << pageShift);
        cp.paramVector("page" + std::to_string(p), words);
    }
}

void
PhysicalMemory::unserialize(const sim::CheckpointIn &cp)
{
    std::uint64_t size = 0;
    cp.param("size", size);
    g5p_assert(size == data_.size(),
               "checkpoint memory size mismatch");
    std::vector<std::uint64_t> pages;
    cp.paramVector("touchedPages", pages);
    for (std::uint64_t p : pages) {
        std::vector<std::uint64_t> words;
        cp.paramVector("page" + std::to_string(p), words);
        g5p_assert(words.size() == (1u << pageShift) / 8,
                   "corrupt checkpoint page");
        std::memcpy(data_.data() + (p << pageShift), words.data(),
                    1u << pageShift);
        touch(p << pageShift);
    }
}

void
PhysicalMemory::regStats()
{
    addStat(&statReads_, "reads", "functional reads");
    addStat(&statWrites_, "writes", "functional writes");
    addStat(&statPagesTouched_, "pagesTouched",
            "distinct 4KB pages ever written or read");
    statPagesTouched_.functor([this] {
        return (double)pagesTouched_;
    });
}

} // namespace g5p::mem
