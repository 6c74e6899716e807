/**
 * @file
 * AnonMapping: a zero-filled array that costs host memory only where
 * it is touched.
 *
 * gem5 backs guest memory with an anonymous mmap for the same reason
 * (PAPER.md finding 1: the simulator's data side is nearly idle). The
 * kernel maps a page of zeros on first touch, so a 32 MiB guest memory
 * or an 8 MiB LLC tag block costs one page fault per page a run
 * actually uses, not a zero-fill of the whole array at construction.
 *
 * calloc() is lazy only until glibc frees a block that size (DESIGN.md
 * "Where the big arrays live").
 *
 * The mapping asks for no huge pages: one 2 MiB fault would make a
 * whole region resident for a single touched byte.
 */

#ifndef G5P_BASE_ANON_MAPPING_HH
#define G5P_BASE_ANON_MAPPING_HH

#include <cstddef>
#include <cstdint>

namespace g5p::base
{

class AnonMapping
{
  public:
    /** Map @p bytes (> 0) of zeros; asserts if the kernel refuses. */
    explicit AnonMapping(std::size_t bytes);
    ~AnonMapping();

    AnonMapping(const AnonMapping &) = delete;
    AnonMapping &operator=(const AnonMapping &) = delete;

    /** The first element, page aligned. */
    template <typename T = std::uint8_t>
    T *
    data() const
    {
        return static_cast<T *>(base_);
    }

    std::size_t size() const { return size_; }

  private:
    void *base_;
    std::size_t size_;
};

} // namespace g5p::base

#endif // G5P_BASE_ANON_MAPPING_HH
