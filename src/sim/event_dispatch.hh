/**
 * @file
 * Type-indexed event dispatch: the registration surface behind mg5's
 * devirtualized service loop.
 *
 * The papers on gem5's host behaviour agree on where the service
 * loop's front-end stalls come from: every serviced event is an
 * indirect call through `Event::process()`, megamorphic at the one
 * call site that matters, so the BTB mispredicts and the i-fetch
 * stream restarts at simulation-event rate. mg5 removes that indirect
 * call structurally. Event classes register a non-virtual handler
 * once and receive a small `EventKind` id; every `Event` carries its
 * kind in a byte of tail padding; `EventQueue::serviceTop` indexes a
 * flat table of plain function pointers instead of loading a vtable.
 * The table lives in one cache line's worth of slots for the kinds a
 * simulation actually uses, and the handler thunks are `G5P_HOT`, so
 * dispatch target and dispatched code stay in the hot text region.
 *
 * Kind 0 (`fallbackKind`) is pre-wired to a handler that makes the
 * virtual `process()` call, so an Event subclass that never calls
 * setKind() still runs and the queue dispatches every event the same
 * way. In-tree classes register via `registeredEventKind<D>()` below,
 * whose thunk calls `D::process()` directly: each event class has
 * exactly one body.
 *
 * Registration is process-global (`EventDispatch::global()`),
 * idempotent per handler, and bounded: 255 distinct kinds plus the
 * fallback. A same-name registration with a different handler throws
 * (kind names are identities, not labels), and overflowing the table
 * throws rather than silently degrading — both are covered by unit
 * tests against a private EventDispatch instance.
 */

#ifndef G5P_SIM_EVENT_DISPATCH_HH
#define G5P_SIM_EVENT_DISPATCH_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "base/compiler.hh"

namespace g5p::sim
{

class Event;

/** Small dense id naming a registered event class; 0 is reserved. */
using EventKind = std::uint8_t;

/** Kind of events that never registered; its handler makes the
 *  virtual process() call. */
inline constexpr EventKind fallbackKind = 0;

/** Non-virtual service handler: the devirtualized process(). */
using EventHandler = void (*)(Event &);

/**
 * The kind table. One process-global instance serves every queue
 * (`global()`); tests build private instances to probe the collision
 * and overflow contracts without poisoning the global table.
 */
class EventDispatch
{
  public:
    /** Table capacity, including the reserved fallback slot. */
    static constexpr std::size_t maxKinds = 256;

    EventDispatch();

    EventDispatch(const EventDispatch &) = delete;
    EventDispatch &operator=(const EventDispatch &) = delete;

    /** The process-wide table every EventQueue dispatches through. */
    static EventDispatch &global();

    /**
     * Register @p handler under @p name and return its kind.
     * Idempotent: re-registering the same handler returns the same
     * kind regardless of name. Throws InvariantError if @p name is
     * already bound to a *different* handler (collision) or the
     * table is full (overflow).
     */
    EventKind registerKind(const std::string &name,
                           EventHandler handler);

    /** Dispatch @p event through @p kind's handler. Hot path:
     *  one relaxed table load plus a direct-indexed call. */
    G5P_HOT void
    invoke(EventKind kind, Event &event) const
    {
        table_[kind].load(std::memory_order_relaxed)(event);
    }

    /** Handler bound to @p kind (the fallback thunk for kind 0). */
    EventHandler
    handler(EventKind kind) const
    {
        return table_[kind].load(std::memory_order_relaxed);
    }

    /** Diagnostic name of @p kind ("fallback" for kind 0). */
    std::string kindName(EventKind kind) const;

    /** Registered kinds, fallback included. */
    std::size_t numKinds() const;

  private:
    /**
     * Handler slots are atomics so a table published by one thread's
     * registration is read race-free by another thread's service
     * loop (the parallel harness runs simulations concurrently).
     * Relaxed suffices: a kind id only reaches a queue through an
     * Event whose construction happens-after the registration.
     */
    std::atomic<EventHandler> table_[maxKinds];

    mutable std::mutex mutex_;
    std::vector<std::string> names_;
};

/**
 * @{ Modeled virtuality of the event-entry trace scopes.
 *
 * The hostsim pipeline model treats a scope marked virtual as an
 * indirect-call site (trace::Synthesizer emits BTB-pressure for it).
 * Historically mg5's event-entry scopes — the CPU tick handlers, the
 * FS timer — were hard-coded virtual, faithfully modeling gem5's
 * `process()` chain. With table dispatch those entries are direct
 * calls, so the flag is now per-thread state: it defaults to true
 * (the gem5-faithful "before" model, keeping every existing modeled
 * figure unchanged) and the frontend bench flips it to false for the
 * "after" Top-Down leg. Thread-local for the same reason Recorder
 * activation is: the parallel harness runs one simulation per worker.
 * Flipping it between runs in one process requires
 * trace::FuncRegistry::resetForTest() (site caches key on the
 * registry generation).
 */
bool modeledDispatchVirtual();
void setModeledDispatchVirtual(bool v);
/** @} */

/**
 * Register (once per process) the non-virtual dispatch thunk for
 * event class @p D and return its kind. The thunk downcasts and makes
 * the qualified call `D::process()`, which binds statically — after
 * inlining, servicing a kind-tagged event is one predictable indirect
 * through the flat table instead of a megamorphic vtable load.
 *
 * The function-local static makes registration lazy, thread-safe,
 * and free after first use (one guard check, no lock).
 */
template <typename D>
G5P_HOT EventKind
registeredEventKind(const char *name)
{
    static const EventKind kind = EventDispatch::global().registerKind(
        name, [](Event &event) {
            static_cast<D &>(event).D::process();
        });
    return kind;
}

} // namespace g5p::sim

#endif // G5P_SIM_EVENT_DISPATCH_HH
