/**
 * @file
 * Registry of "simulation functions" — the unit of the code-layout and
 * profiling models.
 *
 * Every function in mg5 that represents a distinct piece of simulator
 * code (an event handler, a cache access path, a decoder case, one
 * specialization of a virtual method, ...) registers itself here and is
 * assigned a FuncId. The registry is the ground truth that:
 *
 *  - the code-layout model uses to place each function at a synthetic
 *    host code address with a synthetic size (trace/code_layout.hh);
 *  - the run-time Recorder uses to capture the dynamic call stream
 *    (trace/recorder.hh);
 *  - the Fig-15 function profile uses to name and rank functions by
 *    self instructions (core::hostProfileFromSelfOps).
 *
 * Distinct *dynamic specializations* matter: gem5 reaches thousands of
 * distinct functions at run time largely through templates and virtual
 * dispatch (e.g. one execute() body per static-instruction class).
 * `lookupKeyed()` models this: the same source-level call site yields a
 * different FuncId per runtime key (opcode, event type, ...), exactly
 * as the linker would emit distinct symbols per instantiation.
 */

#ifndef G5P_TRACE_FUNC_REGISTRY_HH
#define G5P_TRACE_FUNC_REGISTRY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace g5p::trace
{

/** Index of a registered simulation function. */
using FuncId = std::uint32_t;

/** Sentinel for "no function". */
constexpr FuncId invalidFuncId = ~FuncId(0);

/**
 * Coarse classification of simulator code. The kind selects the
 * code-generation parameters (typical machine-code size, branch
 * density, virtual-call density) used when the function is lowered to
 * a synthetic host instruction stream. See trace/code_layout.{hh,cc}
 * for the per-kind constants (CodegenParams) and their provenance.
 */
enum class FuncKind : std::uint8_t
{
    EventLoop,      ///< main simulation loop / event queue service
    EventHandler,   ///< scheduled event process() bodies
    CpuSimple,      ///< Atomic/Timing CPU tick paths
    CpuDetailed,    ///< Minor/O3 pipeline stage bodies
    InstExecute,    ///< per-opcode execute() specializations
    Decode,         ///< guest instruction decode
    MemAccess,      ///< cache/xbar/DRAM timing access paths
    MemAtomic,      ///< the lean atomic-mode access fast path
    TlbWalk,        ///< guest TLB / page-table code
    Syscall,        ///< SE-mode syscall emulation
    KernelSim,      ///< FS-mode kernel/boot device models
    Stats,          ///< statistics bookkeeping
    Util,           ///< small helpers (packet ctors, arbitration)
    NumKinds
};

/** Human-readable name of a FuncKind. */
const char *funcKindName(FuncKind kind);

/** Static metadata for one registered function. */
struct FuncInfo
{
    std::string name;       ///< fully qualified symbol-ish name
    FuncKind kind;          ///< codegen class
    bool isVirtual;         ///< reached via virtual dispatch
    std::uint32_t key;      ///< specialization key (0 if none)
};

/**
 * Process-wide function registry, shared by every concurrent run.
 *
 * Registration is idempotent per (name, key): repeated lookups return
 * the same FuncId, so static call-site caches are safe. Entries are
 * append-only and immutable once published — a FuncId handed out to
 * any thread stays valid, and the FuncInfo behind it never changes —
 * which is what makes the hot read path (info(), called once per
 * synthesized call frame) lock-free: storage is chunked so published
 * entries never move, and an acquire load of the entry count is the
 * only synchronization a reader needs. New registrations (rare after
 * the first run warms the call-site caches) take a mutex.
 */
class FuncRegistry
{
  public:
    /** The singleton registry. */
    static FuncRegistry &instance();

    /**
     * Register (or find) a plain function.
     * @param name fully qualified name, e.g. "AtomicCpu::tick"
     * @param kind codegen class
     * @param is_virtual reached through virtual dispatch
     */
    FuncId lookup(const std::string &name, FuncKind kind,
                  bool is_virtual = false);

    /**
     * Register (or find) a keyed specialization, e.g. one execute()
     * body per opcode: lookupKeyed("StaticInst::execute", k, op).
     */
    FuncId lookupKeyed(const std::string &name, FuncKind kind,
                       std::uint32_t key, bool is_virtual = false);

    /** Metadata for @p id. Lock-free; safe from any thread. */
    const FuncInfo &
    info(FuncId id) const
    {
        g5p_registry_check(id);
        return chunks_[id >> chunkShift]
            .load(std::memory_order_relaxed)[id & (chunkEntries - 1)];
    }

    /** Number of registered functions (lock-free snapshot). */
    std::size_t
    size() const
    {
        return count_.load(std::memory_order_acquire);
    }

    /** @{ Chunked storage geometry (entries never move). */
    static constexpr std::size_t chunkShift = 10;
    static constexpr std::size_t chunkEntries = 1u << chunkShift;
    static constexpr std::size_t maxChunks = 4096;
    /** @} */

  private:
    FuncRegistry() = default;

    /** Out-of-line assert so the header needn't pull in logging. */
    void g5p_registry_check(FuncId id) const;

    /**
     * Chunk pointers are published with the count's release store;
     * readers order on count_ (acquire) so the pointer load itself
     * can be relaxed.
     */
    std::array<std::atomic<FuncInfo *>, maxChunks> chunks_{};
    std::atomic<std::uint32_t> count_{0};

    /** Serializes registration and byName_ access. */
    mutable std::mutex mutex_;
    std::unordered_map<std::string, FuncId> byName_;
};

} // namespace g5p::trace

#endif // G5P_TRACE_FUNC_REGISTRY_HH
