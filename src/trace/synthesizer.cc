#include "trace/synthesizer.hh"

#include <algorithm>

#include "base/compiler.hh"
#include "base/logging.hh"

namespace g5p::trace
{

namespace
{

/** Child-call density decays by this factor per nesting level. */
constexpr double childDensityDecay = 0.45;

/**
 * Taken probability of each branch direction-bias class. Most real
 * branch sites are nearly deterministic (error checks, loop guards);
 * a few flip.
 */
constexpr double biasTakenProb[] = {
    0.002, // never-taken checks
    0.998, // loop guards, common paths
    0.96,  // mostly taken
    0.5,   // data-dependent
};

/**
 * The number of typing selectors k in [0, 10000) for which
 * (double)k / 100.0 < @p pct. k / 100.0 never decreases as k grows,
 * so those k are exactly the ones below the returned bound, and
 * `k < bound` types a site as the floating-point test would.
 */
std::uint16_t
selectorBound(double pct)
{
    unsigned lo = 0, hi = 10000;
    while (lo < hi) {
        unsigned mid = (lo + hi) / 2;
        if ((double)mid / 100.0 < pct)
            lo = mid + 1;
        else
            hi = mid;
    }
    return (std::uint16_t)lo;
}

} // namespace

Synthesizer::Synthesizer(CodeLayout &layout, HostInstSink &sink,
                         std::uint64_t seed, double work_scale)
    : layout_(layout), sink_(sink), rng_(seed),
      workScale_(work_scale),
      instBytes_((std::uint8_t)layout.options().instBytes)
{
    stack_.reserve(96);
    batch_ = std::make_unique<HostOp[]>(batchOps);

    // Site typing by (kind, depth): branch %, call % after depth
    // decay, and stack-reference %, summed in this order.
    for (std::size_t k = 0; k < (std::size_t)FuncKind::NumKinds; ++k) {
        const CodegenParams &params = codegenParams((FuncKind)k);
        g5p_assert(params.subFuncs <= 256,
                   "kind %zu has %u callees; a site record holds 256",
                   k, params.subFuncs);
        for (unsigned depth = 0; depth <= maxChildDepth; ++depth) {
            double branch_pct = 100.0 / params.instsPerBranch;
            double child_pct = params.childCallPer100;
            for (unsigned d = 0; d < depth; ++d)
                child_pct *= childDensityDecay;
            if (depth >= maxChildDepth)
                child_pct = 0.0;
            double stack_pct = params.stackRefsPerBurst * 100.0 / 8.0;
            classes_[k * (maxChildDepth + 1) + depth] = SiteClasses{
                selectorBound(branch_pct),
                selectorBound(branch_pct + child_pct),
                selectorBound(branch_pct + child_pct + stack_pct)};
        }
    }
}

Synthesizer::~Synthesizer()
{
    flush();
}

void
Synthesizer::deliver()
{
    if (batchSize_ == 0)
        return;
    sink_.ops(batch_.get(), batchSize_);
    batchSize_ = 0;
}

void
Synthesizer::flush()
{
    for (Frame &frame : stack_) {
        countSelf(frame.id, frame.selfOps);
        frame.selfOps = 0;
    }
    deliver();
}

HostAddr
Synthesizer::slotBase() const
{
    // Frames grow down from stackBase; deep call chains touch more
    // stack lines, shallow ones reuse the same hot lines.
    return stackBase - (HostAddr)(stack_.size() + 1) * frameBytes;
}

std::uint64_t
Synthesizer::siteHash(std::uint64_t struct_seed, std::uint64_t offset)
{
    std::uint64_t z = offset ^ struct_seed;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Synthesizer::Site
Synthesizer::buildSite(const Frame &frame, std::uint32_t offset) const
{
    const CodegenParams &params = *frame.params;
    std::uint64_t site = siteHash(frame.structSeed, offset);

    Site rec{};
    rec.uops = (site >> 7) % 16 < (std::uint64_t)(
                   (params.uopsPerInst - 1.0) * 16) ? 2 : 1;
    rec.sel = (std::uint16_t)((site >> 16) % 10000);

    std::uint64_t bias_sel = (site >> 33) % 1000;
    rec.bias = bias_sel < 550 ? 0 : bias_sel < 870 ? 1
             : bias_sel < 990 ? 2 : 3;
    // The taken target lies a little ahead, or wraps to the entry.
    std::uint64_t target = offset + instBytes_ + 8 + (site >> 40) % 40;
    rec.takenOff = target < frame.end - frame.entry
                       ? (std::uint16_t)target : 0;

    // Direct sites bind one callee, quadratically skewed so early
    // children run hot and late children stay cold (the Fig. 15 CDF
    // shape); virtual sites rotate over a small receiver set.
    double u = (double)((site >> 24) % 1024) / 1024.0;
    rec.child = (std::uint8_t)(params.subFuncs * u * u);
    rec.isVirtual = (site >> 52) % 100 <
                    (std::uint64_t)(params.virtualChildFrac * 100);
    rec.receivers = 2 + (site >> 44) % 4;

    rec.isLoad = (site >> 47) & 1;
    rec.slot = (std::uint8_t)((std::uint32_t)(site >> 13) % frameBytes);
    return rec;
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
    FuncKind kind = FuncRegistry::instance().info(id).kind;

    // The callee's prologue pushes saved registers.
    HostOp push;
    push.pc = code.addr;
    push.kind = HostOp::Kind::Store;
    push.dataAddr = slotBase();
    push.dataSize = 8;
    emit(push);

    if (funcs_.size() <= id)
        funcs_.resize(id + 1);
    FuncState &func = funcs_[id];
    const CodegenParams &params = codegenParams(kind);
    if (!func.sites) {
        g5p_assert(code.executedBytes <= 0xffff,
                   "%u executed bytes exceed a site record's offset",
                   code.executedBytes);
        func.sites = std::make_unique<Site[]>(code.executedBytes);
        func.children = std::make_unique<FuncId[]>(params.subFuncs);
        std::fill_n(func.children.get(), params.subFuncs, invalidFuncId);
    }

    HostAddr cursor = func.resume ? func.resume : code.addr;
    // No site calls at maxChildDepth, so deeper frames type their
    // sites as a frame at maxChildDepth does.
    const SiteClasses &classes =
        classes_[(std::size_t)kind * (maxChildDepth + 1) +
                 std::min(depth, maxChildDepth)];
    stack_.push_back(Frame{id, cursor, code.addr,
                           code.addr + code.executedBytes,
                           code.structSeed, func.sites.get(), &classes,
                           &params, depth, 1, 0});
    stack_.back().slots = slotBase();
}

void
Synthesizer::popFrame()
{
    Frame &frame = stack_.back();
    funcs_[frame.id].resume = frame.cursor;
    countSelf(frame.id, frame.selfOps + 1);
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
}

void
Synthesizer::emitChildCall(unsigned child_idx, bool is_virtual)
{
    Frame &caller = stack_.back();
    FuncId &cached = funcs_[caller.id].children[child_idx];
    if (cached == invalidFuncId)
        cached = layout_.childFunc(caller.id, child_idx);
    FuncId child = cached;
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
    ++caller.selfOps;

    unsigned depth = caller.depth + 1;
    pushFrame(child, depth);
    unsigned body = (unsigned)(code.executedBytes /
                               layout_.options().instBytes);
    emitBurst(body);
    popFrame();
}

inline void
Synthesizer::emitBodyInst()
{
    Frame &frame = stack_.back();
    auto offset = (std::uint32_t)(frame.cursor - frame.entry);
    Site &rec = frame.sites[offset];
    if (G5P_UNLIKELY(rec.uops == 0))
        rec = buildSite(frame, offset);
    const Site site = rec;

    HostOp op;
    op.pc = frame.cursor;
    op.lenBytes = instBytes_;
    op.uops = site.uops;

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
        ++frame.selfOps;
        return;
    }

    const SiteClasses &classes = *frame.classes;
    if (site.sel < classes.branchBelow) {
        op.kind = HostOp::Kind::Branch;
        op.conditional = true;
        bool taken = rng_.chance(biasTakenProb[site.bias]);
        op.taken = taken;
        op.target = taken ? frame.entry + site.takenOff : next;
        frame.cursor = op.target;
        emit(op);
        ++frame.selfOps;
        return;
    }

    if (site.sel < classes.callBelow) {
        // A call site. Virtual sites dispatch over a small receiver
        // set that rotates with successive visits, exactly how gem5's
        // per-object virtual calls defeat the indirect predictor.
        unsigned child = site.child;
        if (site.isVirtual) {
            // Receivers arrive in batches (the same SimObject is
            // serviced repeatedly before the next takes over), so
            // this site's dispatched target changes every dozen of
            // *its own* calls, not every call.
            std::uint32_t visits =
                virtualVisits_.refOrInsert(frame.cursor)++;
            child += (unsigned)((visits / 12) % site.receivers);
        }
        if (child >= frame.params->subFuncs)
            child %= frame.params->subFuncs;
        frame.cursor = next; // call consumes this slot's address
        emitChildCall(child, site.isVirtual);
        return;
    }

    // An ALU op or, below stackBelow, spill/local traffic against
    // the current stack frame. The two are about equally common, so
    // a mask picks the fields instead of a branch that would
    // mispredict (Kind::Alu is 0).
    static_assert(HostOp::Kind::Alu == HostOp::Kind{});
    std::uint64_t spill =
        0 - (std::uint64_t)(site.sel < classes.stackBelow);
    HostOp::Kind ref_kind = site.isLoad ? HostOp::Kind::Load
                                        : HostOp::Kind::Store;
    op.kind = (HostOp::Kind)(spill & (std::uint64_t)ref_kind);
    op.dataAddr = spill & (frame.slots + site.slot);
    op.dataSize = (std::uint8_t)(spill & 8);

    frame.cursor = next;
    emit(op);
    ++frame.selfOps;
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
            std::uint32_t visits = virtualVisits_.refOrInsert(call_pc)++;
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
        ++caller.selfOps;
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
    ++frame.selfOps;
}

} // namespace g5p::trace
