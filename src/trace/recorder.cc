#include "trace/recorder.hh"

#include "base/logging.hh"

namespace g5p::trace
{

constinit thread_local Recorder *Recorder::active_ = nullptr;

Recorder::~Recorder()
{
    deactivate();
}

void
Recorder::addConsumer(TraceConsumer *consumer)
{
    g5p_assert(consumer, "null trace consumer");
    consumers_.push_back(consumer);
}

void
Recorder::activate()
{
    active_ = this;
}

void
Recorder::deactivate()
{
    if (active_ == this)
        active_ = nullptr;
}

constinit thread_local DataSpace *DataSpace::current_ = nullptr;

DataSpace &
DataSpace::instance()
{
    // Per-thread fallback: allocations made outside any simulator on
    // one thread must not perturb the address stream of a run on
    // another (the byte-identical-results contract).
    static thread_local DataSpace fallback;
    return current_ ? *current_ : fallback;
}

DataSpace::~DataSpace()
{
    if (current_ == this)
        current_ = nullptr;
}

void
DataSpace::setCurrent(DataSpace *space)
{
    current_ = space;
}

HostAddr
DataSpace::alloc(std::size_t size)
{
    HostAddr addr = next_;
    next_ += (size + 63) & ~std::size_t(63);
    return addr;
}

} // namespace g5p::trace
