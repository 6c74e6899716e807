#include "base/anon_mapping.hh"

#include <sys/mman.h>

#include "base/logging.hh"

namespace g5p::base
{

AnonMapping::AnonMapping(std::size_t bytes)
    : base_(::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                   0)),
      size_(bytes)
{
    g5p_assert(base_ != MAP_FAILED, "cannot map %llu bytes",
               (unsigned long long)bytes);
#ifdef MADV_NOHUGEPAGE
    // Advisory: keeps a host whose THP mode is "always" from backing
    // a sparse mapping with 2 MiB pages.
    ::madvise(base_, bytes, MADV_NOHUGEPAGE);
#endif
}

AnonMapping::~AnonMapping()
{
    ::munmap(base_, size_);
}

} // namespace g5p::base
