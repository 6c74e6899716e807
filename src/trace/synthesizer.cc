#include "trace/synthesizer.hh"

#include "base/logging.hh"

namespace g5p::trace
{

namespace
{

/** Deepest synthetic-callee nesting below an instrumented scope. */
constexpr unsigned maxChildDepth = 3;

/** Child-call density decays by this factor per nesting level. */
constexpr double childDensityDecay = 0.45;

} // namespace

Synthesizer::Synthesizer(CodeLayout &layout, HostInstSink &sink,
                         std::uint64_t seed, double work_scale)
    : layout_(layout), sink_(sink), rng_(seed),
      workScale_(work_scale)
{
    stack_.reserve(96);
    batch_.reserve(batchOps);
}

Synthesizer::~Synthesizer()
{
    flush();
}

void
Synthesizer::flush()
{
    if (batch_.empty())
        return;
    sink_.ops(batch_.data(), batch_.size());
    batch_.clear();
}

HostAddr
Synthesizer::stackSlot(std::uint32_t offset) const
{
    // Frames grow down from stackBase; deep call chains touch more
    // stack lines, shallow ones reuse the same hot lines.
    return stackBase - (HostAddr)(stack_.size() + 1) * frameBytes +
           offset % frameBytes;
}

std::uint64_t
Synthesizer::siteHash(const Frame &frame, HostAddr pc)
{
    std::uint64_t z = (pc - frame.entry) ^ frame.structSeed;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
Synthesizer::countSelf(FuncId id, std::uint64_t n)
{
    if (selfOps_.size() <= id)
        selfOps_.resize(id + 1, 0);
    selfOps_[id] += n;
}

void
Synthesizer::pushFrame(FuncId id, unsigned depth)
{
    const FuncCode &code = layout_.code(id);
    const FuncInfo &info = FuncRegistry::instance().info(id);

    // The callee's prologue pushes saved registers.
    HostOp push;
    push.pc = code.addr;
    push.kind = HostOp::Kind::Store;
    push.dataAddr = stackSlot(0);
    push.dataSize = 8;
    emit(push);
    countSelf(id, 1);

    HostAddr cursor = code.addr;
    if (id < resumeCursor_.size() && resumeCursor_[id] != 0)
        cursor = resumeCursor_[id];
    stack_.push_back(Frame{id, cursor, code.addr,
                           code.addr + code.executedBytes,
                           code.structSeed,
                           &codegenParams(info.kind), depth});
}

void
Synthesizer::popFrame()
{
    Frame &frame = stack_.back();
    FuncId id = frame.id;
    if (resumeCursor_.size() <= id)
        resumeCursor_.resize(id + 1, 0);
    resumeCursor_[id] = frame.cursor;
    HostOp ret;
    ret.pc = frame.cursor;
    ret.lenBytes = 1;
    ret.kind = HostOp::Kind::Branch;
    ret.taken = true;
    ret.indirect = true;
    ret.isReturn = true;
    stack_.pop_back();
    ret.target = stack_.empty() ? 0 : stack_.back().cursor;
    emit(ret);
    countSelf(id, 1);
}

void
Synthesizer::emitChildCall(unsigned child_idx, bool is_virtual)
{
    Frame &caller = stack_.back();
    FuncId child = layout_.childFunc(caller.id, child_idx);
    const FuncCode &code = layout_.code(child);

    HostOp call;
    call.pc = caller.cursor;
    call.lenBytes = 5;
    call.uops = is_virtual ? 2 : 1;
    call.kind = HostOp::Kind::Branch;
    call.taken = true;
    call.isCall = true;
    call.indirect = is_virtual;
    call.target = code.addr;
    caller.cursor += call.lenBytes;
    if (caller.cursor >= caller.end)
        caller.cursor = caller.entry;
    emit(call);
    countSelf(caller.id, 1);

    unsigned depth = caller.depth + 1;
    pushFrame(child, depth);
    unsigned body = (unsigned)(code.executedBytes /
                               layout_.options().instBytes);
    emitBurst(body);
    popFrame();
}

void
Synthesizer::emitBodyInst()
{
    Frame &frame = stack_.back();
    const CodegenParams &params = *frame.params;
    std::uint64_t site = siteHash(frame, frame.cursor);

    HostOp op;
    op.pc = frame.cursor;
    op.lenBytes = (std::uint8_t)layout_.options().instBytes;
    op.uops = (site >> 7) % 16 < (std::uint64_t)(
                  (params.uopsPerInst - 1.0) * 16) ? 2 : 1;

    HostAddr next = frame.cursor + op.lenBytes;
    if (next >= frame.end) {
        // Loop back-edge: taken backward jump to the entry, so
        // repeated calls re-walk the same bytes (fetch reuse).
        op.kind = HostOp::Kind::Branch;
        op.conditional = true;
        op.taken = true;
        op.target = frame.entry;
        frame.cursor = frame.entry;
        emit(op);
        countSelf(frame.id, 1);
        return;
    }

    // Per-site instruction typing: what this *address* is, fixed for
    // the whole run, as in real machine code.
    double sel = (double)((site >> 16) % 10000) / 100.0; // [0,100)
    double branch_pct = 100.0 / params.instsPerBranch;
    double child_pct = params.childCallPer100;
    for (unsigned d = 0; d < frame.depth; ++d)
        child_pct *= childDensityDecay;
    if (frame.depth >= maxChildDepth)
        child_pct = 0.0;
    double stack_pct = params.stackRefsPerBurst * 100.0 / 8.0;

    if (sel < branch_pct) {
        op.kind = HostOp::Kind::Branch;
        op.conditional = true;
        // Per-site direction bias: most real branch sites are nearly
        // deterministic (error checks, loop guards); a few flip.
        std::uint64_t bias_sel = (site >> 33) % 1000;
        double taken_prob;
        if (bias_sel < 550)
            taken_prob = 0.002;          // never-taken checks
        else if (bias_sel < 870)
            taken_prob = 0.998;          // loop guards, common paths
        else if (bias_sel < 990)
            taken_prob = 0.96;           // mostly taken
        else
            taken_prob = 0.5;            // data-dependent
        bool taken = rng_.chance(taken_prob);
        // The taken target is a property of the site.
        HostAddr target = frame.cursor + op.lenBytes + 8 +
                          ((site >> 40) % 40);
        if (target >= frame.end)
            target = frame.entry;
        op.taken = taken;
        op.target = taken ? target : next;
        frame.cursor = op.target;
        emit(op);
        countSelf(frame.id, 1);
        return;
    }

    if (sel < branch_pct + child_pct) {
        // A call site. Direct sites bind one callee (fixed per
        // site, quadratically skewed so early children run hot and
        // late children stay cold — the Fig. 15 CDF shape). Virtual
        // sites dispatch over a small receiver set that rotates with
        // successive visits, exactly how gem5's per-object virtual
        // calls defeat the indirect predictor.
        double u = (double)((site >> 24) % 1024) / 1024.0;
        unsigned child = (unsigned)(params.subFuncs * u * u);
        bool is_virtual = (site >> 52) % 100 <
                          (std::uint64_t)(params.virtualChildFrac *
                                          100);
        if (is_virtual) {
            // Receivers arrive in batches (the same SimObject is
            // serviced repeatedly before the next takes over), so
            // this site's dispatched target changes every dozen of
            // *its own* calls, not every call.
            unsigned targets = 2 + (unsigned)((site >> 44) % 4);
            std::uint32_t visits = virtualVisits_[frame.cursor]++;
            child += (unsigned)((visits / 12) % targets);
        }
        if (child >= params.subFuncs)
            child %= params.subFuncs;
        frame.cursor = next; // call consumes this slot's address
        emitChildCall(child, is_virtual);
        return;
    }

    if (sel < branch_pct + child_pct + stack_pct) {
        // Spill/local traffic against the current stack frame.
        op.kind = (site >> 47) & 1 ? HostOp::Kind::Load
                                   : HostOp::Kind::Store;
        op.dataAddr = stackSlot((std::uint32_t)(site >> 13));
        op.dataSize = 8;
    }

    frame.cursor = next;
    emit(op);
    countSelf(frame.id, 1);
}

void
Synthesizer::emitBurst(unsigned insts)
{
    if (stack_.empty())
        return;
    if (workScale_ != 1.0) {
        double scaled = insts * workScale_;
        insts = (unsigned)scaled;
        if (rng_.chance(scaled - insts))
            ++insts;
    }
    for (unsigned i = 0; i < insts; ++i)
        emitBodyInst();
}

void
Synthesizer::funcEnter(FuncId id)
{
    if (!stack_.empty()) {
        // A few caller instructions (argument setup), then the call.
        emitBurst(2 + (unsigned)rng_.below(5));

        Frame &caller = stack_.back();
        const FuncInfo &info = FuncRegistry::instance().info(id);
        const FuncCode &code = layout_.code(id);
        const FuncCode &ccode = layout_.code(caller.id);

        // Each (caller, callee) pair has one canonical call site in
        // the caller's body, as compiled code does; without this,
        // every dynamic call would look like a brand-new indirect
        // branch to the host predictor.
        std::uint64_t pair = ccode.structSeed * 0x9e3779b97f4a7c15ULL
                             ^ code.structSeed;
        HostAddr call_pc = caller.entry +
            (pair % (ccode.executedBytes > 8
                         ? ccode.executedBytes - 8 : 8));
        HostAddr target = code.addr;
        bool event_dispatch =
            info.isVirtual &&
            FuncRegistry::instance().info(caller.id).kind ==
                FuncKind::EventLoop;
        if (event_dispatch) {
            // A virtual event entry is reached through the loop's ONE
            // `event->process()` site, not a per-callee site: every
            // event kind the queue services funnels through that pc.
            // The loop also dispatches kinds hostsim does not scope
            // (port responses, writebacks, wrapped lambdas), so the
            // target observed at the site rotates over a small
            // receiver set and re-trains the indirect entry between
            // consecutive scoped entries — the megamorphic-site cost
            // the paper pins on gem5's event loop, and mg5's
            // serviceTop makes the same call. The rotated targets are
            // predictor-visible only; fetch follows op pcs, so the
            // instruction stream is unchanged.
            call_pc = caller.entry +
                (ccode.structSeed %
                 (ccode.executedBytes > 8 ? ccode.executedBytes - 8
                                          : 8));
            unsigned targets =
                3 + (unsigned)(ccode.structSeed % 3);
            std::uint32_t visits = virtualVisits_[call_pc]++;
            unsigned slot =
                (unsigned)((visits * 2654435761u) >> 8) % targets;
            target = code.addr + 64ull * slot;
        }

        HostOp call;
        call.pc = call_pc;
        call.lenBytes = 5; // call rel32 / call [vtable]
        call.uops = info.isVirtual ? 2 : 1;
        call.kind = HostOp::Kind::Branch;
        call.taken = true;
        call.isCall = true;
        call.indirect = info.isVirtual;
        call.target = target;
        caller.cursor = call_pc + call.lenBytes;
        if (caller.cursor >= caller.end)
            caller.cursor = caller.entry;
        emit(call);
        countSelf(caller.id, 1);
    }

    pushFrame(id, 0);
}

void
Synthesizer::funcExit(FuncId id)
{
    if (stack_.empty())
        return;
    g5p_assert(stack_.back().id == id,
               "unbalanced trace scopes (%s exits while %s is open)",
               FuncRegistry::instance().info(id).name.c_str(),
               FuncRegistry::instance()
                   .info(stack_.back().id).name.c_str());

    // Tail of the function body, then the return.
    emitBurst(2 + (unsigned)rng_.below(4));
    popFrame();
}

void
Synthesizer::dataRef(HostAddr addr, std::uint32_t size,
                     bool is_write)
{
    if (stack_.empty())
        return;
    // A couple of address-computation instructions, then the access.
    emitBurst(1 + (unsigned)rng_.below(3));

    Frame &frame = stack_.back();
    HostOp op;
    op.pc = frame.cursor;
    op.lenBytes = 4;
    op.kind = is_write ? HostOp::Kind::Store : HostOp::Kind::Load;
    op.dataAddr = addr;
    op.dataSize = (std::uint8_t)(size > 64 ? 64 : size);
    frame.cursor += op.lenBytes;
    if (frame.cursor >= frame.end)
        frame.cursor = frame.entry;
    emit(op);
    countSelf(frame.id, 1);
}

} // namespace g5p::trace
