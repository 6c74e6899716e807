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

#include <unordered_map>
#include <vector>

#include "base/random.hh"
#include "trace/code_layout.hh"
#include "trace/recorder.hh"

namespace g5p::trace
{

/** One synthesized host instruction. */
struct HostOp
{
    enum class Kind : std::uint8_t { Alu, Load, Store, Branch };

    HostAddr pc = 0;
    std::uint8_t lenBytes = 4;
    std::uint8_t uops = 1;
    Kind kind = Kind::Alu;

    /** @{ Branch fields (kind == Branch). */
    bool taken = false;
    bool conditional = false;
    bool indirect = false;
    bool isCall = false;
    bool isReturn = false;
    HostAddr target = 0;
    /** @} */

    /** @{ Memory fields (kind == Load/Store). */
    HostAddr dataAddr = 0;
    std::uint8_t dataSize = 0;
    /** @} */
};

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
     * Deliver any buffered instructions to the sink now. Call before
     * reading sink-side state (counters) mid-run, followed by
     * PipelinedSink::drain() when the sink is a pipelined stage; the
     * destructor flushes the final tail automatically.
     */
    void flush();

    /** Total host instructions emitted. */
    std::uint64_t opsEmitted() const { return opsEmitted_; }

    /** Per-function self instruction counts (Fig. 15 profile). */
    const std::vector<std::uint64_t> &selfOps() const
    { return selfOps_; }

    /** Current call-stack depth. */
    std::size_t depth() const { return stack_.size(); }

    /** Host address region used for synthetic stack frames. */
    static constexpr HostAddr stackBase = 0x7ff0'0000ULL;
    static constexpr std::uint32_t frameBytes = 192;

  private:
    struct Frame
    {
        FuncId id;
        HostAddr cursor;     ///< next fetch address
        HostAddr entry;      ///< function entry
        HostAddr end;        ///< entry + executedBytes
        std::uint64_t structSeed; ///< code-structure seed
        const CodegenParams *params;
        unsigned depth;      ///< synthetic-callee nesting level
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
     * Deterministic hash of a code site, keyed by the function and
     * the offset within it — so what an instruction *is* survives
     * relinking; only where it *lives* changes.
     */
    static std::uint64_t siteHash(const Frame &frame, HostAddr pc);

    void countSelf(FuncId id, std::uint64_t n);

    HostAddr stackSlot(std::uint32_t offset) const;

    /** Buffer one instruction; a full buffer goes to the sink. */
    void
    emit(const HostOp &op)
    {
        ++opsEmitted_;
        batch_.push_back(op);
        if (batch_.size() >= batchOps)
            flush();
    }

    CodeLayout &layout_;
    HostInstSink &sink_;
    Rng rng_;
    double workScale_;
    std::vector<Frame> stack_;

    /** Delivery buffer (emit/flush). */
    std::vector<HostOp> batch_;

    /**
     * Per-function resume point: successive invocations continue
     * exploring the body where the last one stopped (different
     * dynamic calls take different paths through a function), so
     * short-lived scopes still eventually exercise all their call
     * sites and code bytes.
     */
    std::vector<HostAddr> resumeCursor_;
    std::uint64_t opsEmitted_ = 0;
    std::vector<std::uint64_t> selfOps_;

    /** Per-virtual-site visit counters (receiver batching). */
    std::unordered_map<HostAddr, std::uint32_t> virtualVisits_;
};

} // namespace g5p::trace

#endif // G5P_TRACE_SYNTHESIZER_HH
