#include "sim/event_dispatch.hh"

#include "base/sim_error.hh"
#include "sim/eventq.hh"

namespace g5p::sim
{

namespace
{

/** Kind 0's handler: the virtual call, for unregistered events. */
void
fallbackInvoke(Event &event)
{
    event.process();
}

// constinit: direct TLS load, and sidesteps GCC 12 UBSan's
// misdiagnosis of init-on-first-use thread_local wrappers.
constinit thread_local bool modeledVirtual = true;

} // namespace

bool
modeledDispatchVirtual()
{
    return modeledVirtual;
}

void
setModeledDispatchVirtual(bool v)
{
    modeledVirtual = v;
}

EventDispatch::EventDispatch()
{
    for (auto &slot : table_)
        slot.store(&fallbackInvoke, std::memory_order_relaxed);
    names_.reserve(maxKinds);
    names_.emplace_back("fallback");
}

EventDispatch &
EventDispatch::global()
{
    // Leaked on purpose: wrapper destructors may run during static
    // teardown in an order we do not control, and the table is
    // immutable once built.
    static EventDispatch *table = new EventDispatch;
    return *table;
}

EventKind
EventDispatch::registerKind(const std::string &name,
                            EventHandler handler)
{
    g5p_assert(handler, "registering null event handler");
    std::lock_guard<std::mutex> lock(mutex_);

    // Idempotent per handler: the same thunk re-registered (e.g. a
    // template instantiated in several translation units folded by
    // the linker) keeps its kind.
    for (std::size_t k = 1; k < names_.size(); ++k) {
        if (table_[k].load(std::memory_order_relaxed) == handler)
            return static_cast<EventKind>(k);
    }

    // Kind names are identities: one name, one handler. A second
    // handler under an existing name is a registration bug, not a
    // new kind.
    for (std::size_t k = 0; k < names_.size(); ++k) {
        if (names_[k] == name)
            g5p_throw(InvariantError, "event_dispatch", 0,
                      "event kind '%s' registered with two different "
                      "handlers", name.c_str());
    }

    if (names_.size() >= maxKinds)
        g5p_throw(InvariantError, "event_dispatch", 0,
                  "event kind table full (%zu kinds); cannot "
                  "register '%s'", names_.size(), name.c_str());

    auto kind = static_cast<EventKind>(names_.size());
    names_.push_back(name);
    table_[kind].store(handler, std::memory_order_relaxed);
    return kind;
}

std::string
EventDispatch::kindName(EventKind kind) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (kind >= names_.size())
        return "unregistered";
    return names_[kind];
}

std::size_t
EventDispatch::numKinds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return names_.size();
}

} // namespace g5p::sim
