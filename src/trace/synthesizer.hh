/**
 * @file
 * Lowers mg5's dynamic function-call/data-touch stream into a host
 * instruction stream (HostOp), the input to the host-microarchitecture
 * model.
 *
 * The synthesizer maintains the call stack implied by the
 * funcEnter/funcExit nesting. Inside a scope, it advances a cursor
 * through the function's code region, emitting ALU ops, conditional
 * branches (short forward skips and loop back-edges), and stack-frame
 * spill references at the densities in CodegenParams. Scope entry
 * emits a call (an *indirect* call at virtual sites — the paper's
 * "abundance of virtual functions"), scope exit a return, and every
 * recorded simulator data access becomes a load/store at its real
 * host address.
 */

#ifndef G5P_TRACE_SYNTHESIZER_HH
#define G5P_TRACE_SYNTHESIZER_HH

#include <array>
#include <memory>
#include <vector>

#include "base/random.hh"
#include "mem/addr_table.hh"
#include "trace/code_layout.hh"
#include "trace/recorder.hh"

namespace g5p::trace
{

/**
 * One synthesized host instruction: 24 bytes, so a batch of them is
 * cheap to write on one side of the pipe and to read on the other.
 * No op is both a branch and a memory access, so the branch target
 * and the data address share one field.
 */
struct HostOp
{
    enum class Kind : std::uint8_t { Alu, Load, Store, Branch };

    HostAddr pc = 0;

    union
    {
        HostAddr target = 0; ///< kind == Branch
        HostAddr dataAddr;   ///< kind == Load/Store
    };

    std::uint8_t lenBytes = 4;
    std::uint8_t uops = 1;
    Kind kind = Kind::Alu;
    std::uint8_t dataSize = 0; ///< kind == Load/Store

    /** @{ Branch flags (kind == Branch). */
    bool taken : 1 = false;
    bool conditional : 1 = false;
    bool indirect : 1 = false;
    bool isCall : 1 = false;
    bool isReturn : 1 = false;
    /** @} */
};

static_assert(sizeof(HostOp) <= 24, "HostOp must stay 24 bytes");

/** Receiver of the synthesized stream (the host core model). */
class HostInstSink
{
  public:
    virtual ~HostInstSink() = default;

    /** Deliver one host instruction, in program order. */
    virtual void op(const HostOp &op) = 0;

    /**
     * Deliver a contiguous batch of host instructions, in program
     * order. The synthesizer buffers its stream and delivers only
     * through this entry point (one virtual call per
     * Synthesizer::batchOps instructions). The default implementation
     * is a shim looping over op(), so single-op sinks work unchanged.
     */
    virtual void
    ops(const HostOp *batch, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            op(batch[i]);
    }
};

/**
 * TraceConsumer that performs the lowering. Deterministic given the
 * seed and the input stream.
 */
class Synthesizer : public TraceConsumer
{
  public:
    /**
     * @param work_scale multiplier on body-instruction counts:
     *        "-O3" builds execute slightly fewer instructions per
     *        simulation event (tuning/optflag).
     */
    Synthesizer(CodeLayout &layout, HostInstSink &sink,
                std::uint64_t seed = 0x5f3759df,
                double work_scale = 1.0);

    /** Flushes any buffered tail to the sink. */
    ~Synthesizer() override;

    /** @{ TraceConsumer interface. */
    void funcEnter(FuncId id) override;
    void funcExit(FuncId id) override;
    void dataRef(HostAddr addr, std::uint32_t size,
                 bool is_write) override;
    /** @} */

    /** Instructions buffered per ops() delivery. */
    static constexpr std::size_t batchOps = 4096;

    /**
     * Deliver any buffered instructions to the sink now, and bring
     * selfOps() up to date. Call before reading sink-side state
     * (counters) mid-run, followed by PipelinedSink::drain() when the
     * sink is a pipelined stage; the destructor flushes the final
     * tail automatically.
     */
    void flush();

    /** Total host instructions emitted. */
    std::uint64_t opsEmitted() const { return opsEmitted_; }

    /**
     * Per-function self instruction counts (Fig. 15 profile). Live
     * frames count their own ops and fold them in when they return
     * and on flush(), so read this after flush().
     */
    const std::vector<std::uint64_t> &selfOps() const
    { return selfOps_; }

    /** Current call-stack depth. */
    std::size_t depth() const { return stack_.size(); }

    /** Host address region used for synthetic stack frames. */
    static constexpr HostAddr stackBase = 0x7ff0'0000ULL;
    static constexpr std::uint32_t frameBytes = 192;

  private:
    /** Deepest synthetic-callee nesting below an instrumented scope. */
    static constexpr unsigned maxChildDepth = 3;

    /**
     * What one code site is, fixed for the whole run as in real
     * machine code: everything emitBodyInst needs from the site's
     * hash, built on the site's first visit (buildSite). uops == 0
     * marks a site not visited yet.
     */
    struct Site
    {
        std::uint16_t sel;      ///< typing selector in [0, 10000)
        std::uint16_t takenOff; ///< branch target, offset from entry
        std::uint8_t uops;      ///< µops (1 or 2)
        std::uint8_t child;     ///< call site: callee before rotation
        std::uint8_t slot;      ///< stack ref: offset in the frame
        std::uint8_t bias : 2;      ///< branch: direction-bias class
        std::uint8_t receivers : 3; ///< virtual call: receiver count
        std::uint8_t isVirtual : 1; ///< call site dispatches by vtable
        std::uint8_t isLoad : 1;    ///< stack ref loads (else stores)
    };
    static_assert(sizeof(Site) <= 8);

    /**
     * How sites are typed at one (FuncKind, depth): a site whose
     * selector is below branchBelow is a conditional branch, else
     * below callBelow a call site, else below stackBelow a stack
     * reference, else an ALU op.
     */
    struct SiteClasses
    {
        std::uint16_t branchBelow;
        std::uint16_t callBelow;
        std::uint16_t stackBelow;
    };

    /** What the synthesizer keeps per function across invocations. */
    struct FuncState
    {
        /** Site records by byte offset in the executed span (branch
         *  targets land on any byte); allocated on first entry. */
        std::unique_ptr<Site[]> sites;

        /** Synthetic callees by index (CodeLayout::childFunc), or
         *  invalidFuncId until first called. */
        std::unique_ptr<FuncId[]> children;

        /**
         * Resume point: successive invocations continue exploring
         * the body where the last one stopped (different dynamic
         * calls take different paths through a function), so
         * short-lived scopes still eventually exercise all their
         * call sites and code bytes. 0 before the first return.
         */
        HostAddr resume = 0;
    };

    struct Frame
    {
        FuncId id;
        HostAddr cursor;     ///< next fetch address
        HostAddr entry;      ///< function entry
        HostAddr end;        ///< entry + executedBytes
        std::uint64_t structSeed; ///< code-structure seed
        Site *sites;         ///< the function's site records
        const SiteClasses *classes;
        const CodegenParams *params;
        unsigned depth;      ///< synthetic-callee nesting level
        std::uint64_t selfOps; ///< not yet folded into selfOps_
        HostAddr slots;      ///< slotBase() while this frame is on top
    };

    /** Emit @p insts instructions of the current frame's body. */
    void emitBurst(unsigned insts);

    /** Emit one instruction (possibly a synthetic callee call). */
    void emitBodyInst();

    /** Call a synthetic callee and emit its whole body inline. */
    void emitChildCall(unsigned child_idx, bool is_virtual);

    /** Push @p id as the active frame (call bookkeeping emitted). */
    void pushFrame(FuncId id, unsigned depth);

    /** Pop the active frame, emitting the return instruction. */
    void popFrame();

    /**
     * Deterministic hash of a code site, keyed by the function's
     * structure seed and the offset within it — so what an
     * instruction *is* survives relinking; only where it *lives*
     * changes.
     */
    static std::uint64_t siteHash(std::uint64_t struct_seed,
                                  std::uint64_t offset);

    /** The record of the site at @p offset in @p frame's function. */
    Site buildSite(const Frame &frame, std::uint32_t offset) const;

    void countSelf(FuncId id, std::uint64_t n);

    /** Base of the stack slots of the frame on top (frames lie
     *  frameBytes apart below stackBase). */
    HostAddr slotBase() const;

    /** Hand the buffered instructions to the sink. */
    void deliver();

    /** Buffer one instruction; a full buffer goes to the sink. */
    void
    emit(const HostOp &op)
    {
        ++opsEmitted_;
        batch_[batchSize_++] = op;
        if (batchSize_ == batchOps)
            deliver();
    }

    CodeLayout &layout_;
    HostInstSink &sink_;
    Rng rng_;
    double workScale_;
    /** Length of every body instruction (LayoutOptions::instBytes). */
    std::uint8_t instBytes_;
    std::vector<Frame> stack_;

    /** Delivery buffer (emit/deliver): batchOps ops, batchSize_ of
     *  them filled. */
    std::unique_ptr<HostOp[]> batch_;
    std::size_t batchSize_ = 0;

    /** By FuncKind, then by depth up to maxChildDepth. */
    std::array<SiteClasses, (std::size_t)FuncKind::NumKinds *
                                (maxChildDepth + 1)>
        classes_;

    /** By FuncId. */
    std::vector<FuncState> funcs_;
    std::uint64_t opsEmitted_ = 0;
    std::vector<std::uint64_t> selfOps_;

    /**
     * Visit counters of virtual call sites (receiver batching), by
     * pc. The event loop's dispatch site and body call sites can
     * share a pc, and then they share its counter.
     */
    mem::AddrTable<std::uint32_t> virtualVisits_;
};

} // namespace g5p::trace

#endif // G5P_TRACE_SYNTHESIZER_HH
