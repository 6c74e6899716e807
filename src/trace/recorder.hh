/**
 * @file
 * Run-time capture of mg5's dynamic behaviour.
 *
 * The Recorder is the bridge between the guest-level simulator (mg5)
 * and the host-microarchitecture model. While a profiled simulation
 * runs, every instrumented simulator function reports entry/exit and
 * every simulator data-structure access reports a host data address.
 * Consumers (the host pipeline model, the Fig-15 function profiler)
 * subscribe to this stream.
 *
 * When no Recorder is active the instrumentation reduces to one
 * predictable branch per scope, so un-profiled simulations run at full
 * speed — the same property perf-style sampling has on real gem5.
 */

#ifndef G5P_TRACE_RECORDER_HH
#define G5P_TRACE_RECORDER_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "trace/func_registry.hh"

namespace g5p::trace
{

/**
 * Sink interface for the dynamic trace stream. Callbacks arrive in
 * program order: funcEnter/funcExit properly nested, dataRef inside
 * the scope that performed the access.
 */
class TraceConsumer
{
  public:
    virtual ~TraceConsumer() = default;

    /** A simulation function was entered. */
    virtual void funcEnter(FuncId id) = 0;

    /** The matching scope exited. */
    virtual void funcExit(FuncId id) = 0;

    /** The current scope touched simulator state at @p addr. */
    virtual void dataRef(HostAddr addr, std::uint32_t size,
                         bool is_write) = 0;
};

/**
 * Dispatches the instrumentation stream to registered consumers.
 * Exactly one Recorder may be active *per thread* (each mg5
 * simulation is single threaded, like gem5; the parallel harness
 * runs one whole simulation per worker thread, and activation is
 * thread-local so concurrent runs never observe each other's
 * streams).
 */
class Recorder
{
  public:
    Recorder() = default;
    ~Recorder();

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    /** Add a consumer; not owned. */
    void addConsumer(TraceConsumer *consumer);

    /** Make this recorder the active one (replaces any other). */
    void activate();

    /** Stop recording (no-op if this recorder is not active). */
    void deactivate();

    /** The calling thread's active recorder, or nullptr. */
    static Recorder *active() { return active_; }

    /** @{ Stream entry points used by the instrumentation macros. */
    void
    funcEnter(FuncId id)
    {
        for (auto *c : consumers_)
            c->funcEnter(id);
        ++enterCount_;
    }

    void
    funcExit(FuncId id)
    {
        for (auto *c : consumers_)
            c->funcExit(id);
    }

    void
    dataRef(HostAddr addr, std::uint32_t size, bool is_write)
    {
        for (auto *c : consumers_)
            c->dataRef(addr, size, is_write);
        ++dataCount_;
    }
    /** @} */

    /**
     * Record a heap allocation: mg5 (like gem5) allocates packets,
     * events, and dynamic instructions at high rate, and that churn
     * is a significant part of the simulator's d-side working set.
     * Allocations cycle through a bounded arena, as a real allocator
     * reusing freed chunks does.
     */
    void
    heapAlloc(std::uint32_t size)
    {
        dataRef(heapBase + heapCursor_, size > 64 ? 64 : size, true);
        heapCursor_ = (heapCursor_ + ((size + 63u) & ~63u)) %
                      heapSpan;
    }

    /** Total scopes entered while active (sanity statistics). */
    std::uint64_t enterCount() const { return enterCount_; }

    /** Total data references recorded. */
    std::uint64_t dataCount() const { return dataCount_; }

    /** Synthetic heap arena (between the data and stack segments). */
    static constexpr HostAddr heapBase = 0x6000'0000ULL;
    static constexpr std::uint64_t heapSpan = 1ull << 20;

  private:
    // constinit: guarantees constant initialization so every access
    // compiles to a direct TLS load instead of going through the
    // init-on-first-use wrapper (which is both slower on this hot
    // path and misdiagnosed as a null load by GCC 12's UBSan).
    static constinit thread_local Recorder *active_;

    std::vector<TraceConsumer *> consumers_;
    std::uint64_t enterCount_ = 0;
    std::uint64_t dataCount_ = 0;
    std::uint64_t heapCursor_ = 0;
};

class SiteCache;
class KeyedSiteCache;

/**
 * RAII guard emitting funcEnter/funcExit around an instrumented scope.
 *
 * The site-cache constructors test Recorder::active() *before*
 * resolving the FuncId, so a scope in an un-profiled simulation costs
 * one thread-local load and a predictable branch — no atomic id
 * load. (The flat profile of an Atomic run showed the registry
 * singleton call, at ~9 scopes per instruction, as a top-ten entry
 * all by itself.)
 */
class ScopeGuard
{
  public:
    explicit ScopeGuard(FuncId id)
        : id_(id), rec_(Recorder::active())
    {
        if (rec_)
            rec_->funcEnter(id_);
    }

    inline ScopeGuard(SiteCache &cache, const char *name,
                      FuncKind kind, bool is_virtual);

    inline ScopeGuard(KeyedSiteCache &cache, const char *name,
                      FuncKind kind, bool is_virtual,
                      std::uint32_t key);

    ~ScopeGuard()
    {
        if (rec_)
            rec_->funcExit(id_);
    }

    ScopeGuard(const ScopeGuard &) = delete;
    ScopeGuard &operator=(const ScopeGuard &) = delete;

  private:
    FuncId id_ = invalidFuncId;
    Recorder *rec_;
};

/**
 * Per-call-site cache of a FuncRegistry lookup. FuncIds never change
 * once handed out, so the first resolution is final.
 *
 * The cache is a process-wide static shared by every thread running
 * through the site, so it is an atomic: concurrent first uses race
 * benignly (registration is idempotent, both threads store the same
 * id), and the release store publishes the registry entry behind the
 * id to readers that acquire-load it. Constant-initialized, so the
 * macro expansion carries no static-init guard on the hot path.
 */
class SiteCache
{
  public:
    FuncId
    id(const char *name, FuncKind kind, bool is_virtual)
    {
        FuncId cached = id_.load(std::memory_order_acquire);
        if (cached == invalidFuncId) {
            cached = FuncRegistry::instance().lookup(name, kind,
                                                     is_virtual);
            id_.store(cached, std::memory_order_release);
        }
        return cached;
    }

  private:
    std::atomic<FuncId> id_{invalidFuncId};
};

/**
 * Per-call-site cache for keyed specializations (one FuncId per small
 * integer key, e.g. per opcode). Holds a growable vector, so the
 * macro declares it `static thread_local`: each thread keeps its own
 * copy and no locking is needed (ids are identical across threads —
 * registration is idempotent).
 */
class KeyedSiteCache
{
  public:
    FuncId
    id(const char *name, FuncKind kind, bool is_virtual,
       std::uint32_t key)
    {
        if (key >= ids_.size())
            ids_.resize(key + 1, invalidFuncId);
        if (ids_[key] == invalidFuncId)
            ids_[key] = FuncRegistry::instance().lookupKeyed(
                name, kind, key + 1, is_virtual);
        return ids_[key];
    }

  private:
    std::vector<FuncId> ids_;
};

inline ScopeGuard::ScopeGuard(SiteCache &cache, const char *name,
                              FuncKind kind, bool is_virtual)
    : rec_(Recorder::active())
{
    if (rec_) {
        id_ = cache.id(name, kind, is_virtual);
        rec_->funcEnter(id_);
    }
}

inline ScopeGuard::ScopeGuard(KeyedSiteCache &cache,
                              const char *name, FuncKind kind,
                              bool is_virtual, std::uint32_t key)
    : rec_(Recorder::active())
{
    if (rec_) {
        id_ = cache.id(name, kind, is_virtual, key);
        rec_->funcEnter(id_);
    }
}

/** Record a data reference from the current scope (if recording). */
inline void
recordData(HostAddr addr, std::uint32_t size, bool is_write)
{
    if (auto *rec = Recorder::active())
        rec->dataRef(addr, size, is_write);
}

/** Record a heap allocation (if recording). @see Recorder::heapAlloc */
inline void
recordHeapAlloc(std::uint32_t size)
{
    if (auto *rec = Recorder::active())
        rec->heapAlloc(size);
}

/**
 * Bump allocator assigning host data addresses to simulator state
 * (SimObject fields, the guest physical-memory backing array, ...).
 * The resulting address map is what the host d-side cache model sees.
 */
class DataSpace
{
  public:
    DataSpace() = default;
    ~DataSpace();

    /**
     * The calling thread's active data space. Each sim::Simulator
     * owns one and makes it current for its lifetime, so repeated
     * runs in one process assign identical (deterministic) addresses
     * and concurrent runs on different threads never share an
     * allocation cursor; a thread-local fallback serves code running
     * outside any simulator.
     */
    static DataSpace &instance();

    /** Make @p space current on this thread (nullptr restores the
     *  fallback). */
    static void setCurrent(DataSpace *space);

    /** Allocate @p size bytes, 64-byte aligned. */
    HostAddr alloc(std::size_t size);

    /** Bytes allocated so far. */
    std::uint64_t used() const { return next_ - base_; }

    /** Base of the synthetic data segment. */
    static constexpr HostAddr dataBase = 0x2000'0000ULL;

  private:
    static constinit thread_local DataSpace *current_;

    HostAddr base_ = dataBase;
    HostAddr next_ = dataBase;
};

} // namespace g5p::trace

/** Instrument a scope as one simulation function. */
#define G5P_TRACE_SCOPE(name, kind, is_virtual) \
    static ::g5p::trace::SiteCache g5p_site_cache_; \
    ::g5p::trace::ScopeGuard g5p_scope_guard_( \
        g5p_site_cache_, name, ::g5p::trace::FuncKind::kind, \
        is_virtual)

/** Instrument a scope specialised by a small runtime key. */
#define G5P_TRACE_SCOPE_KEYED(name, kind, is_virtual, key) \
    static thread_local ::g5p::trace::KeyedSiteCache \
        g5p_keyed_site_cache_; \
    ::g5p::trace::ScopeGuard g5p_scope_guard_( \
        g5p_keyed_site_cache_, name, ::g5p::trace::FuncKind::kind, \
        is_virtual, key)

#endif // G5P_TRACE_RECORDER_HH
