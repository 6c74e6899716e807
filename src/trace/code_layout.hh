/**
 * @file
 * Binary-layout model of mg5: every registered simulation function is
 * placed at a synthetic host code address with a synthetic size.
 *
 * The host front-end sees instruction fetches walking these regions,
 * so the *instruction footprint* of a simulation — the paper's central
 * quantity — is the set of functions the run actually touches times
 * their sizes. Per-kind codegen constants live in CodegenParams; their
 * provenance is documented inline.
 */

#ifndef G5P_TRACE_CODE_LAYOUT_HH
#define G5P_TRACE_CODE_LAYOUT_HH

#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "trace/func_registry.hh"

namespace g5p::trace
{

/**
 * Code-generation parameters per FuncKind.
 *
 * Values are calibrated to optimized (-O2) x86-64 builds of large
 * C++ simulators: mean machine-code function sizes of a few hundred
 * bytes, one branch per ~5 instructions, and heavy virtual dispatch
 * in the detailed models. These are *inputs* to the model, not
 * outputs tabulated from the paper.
 */
struct CodegenParams
{
    double meanCodeBytes;    ///< average function size
    double executedFraction; ///< fraction of the body run per call
    double instsPerBranch;   ///< branch density
    double stackRefsPerBurst;///< spill/local refs between events
    double uopsPerInst;      ///< x86 micro-op expansion

    /**
     * @{ Sub-function expansion. One instrumented mg5 scope stands
     * for a whole gem5 call path; the synthesizer expands it into a
     * deterministic tree of callee functions so the *instruction
     * footprint* and the *function population* (Fig. 15) match a
     * multi-million-line simulator rather than mg5's source size.
     */
    unsigned subFuncs;        ///< distinct callees of this scope
    double childCallPer100;   ///< call sites per 100 body insts
    double virtualChildFrac;  ///< fraction of call sites via vtable
    /** @} */
};

/** The per-kind constants. */
const CodegenParams &codegenParams(FuncKind kind);

/** Layout knobs (build-configuration dependent). */
struct LayoutOptions
{
    /** Seed controlling per-function size jitter and link order. */
    std::uint64_t seed = 0x67656d35;

    /** Base of the synthetic text segment. */
    HostAddr codeBase = 0x40'0000;

    /** Mean x86 instruction length in bytes. */
    double instBytes = 4.0;

    /**
     * Text-layout expansion: cold paths (error handling, asserts,
     * rarely-taken template instantiations) and alignment dilute the
     * executed bytes across the text segment, so the page-level code
     * footprint (what the iTLB sees) is a multiple of the line-level
     * one (what the iCache sees).
     */
    double paddingFactor = 3.5;
};

/** Placement of one function. */
struct FuncCode
{
    HostAddr addr = 0;
    std::uint32_t sizeBytes = 0;
    std::uint32_t executedBytes = 0; ///< bytes walked per invocation

    /**
     * Seed for the function's *code structure* (which offsets are
     * branches, calls, loads). Derived from the name only: relinking
     * or resizing the binary moves code but does not rewrite it.
     */
    std::uint64_t structSeed = 0;
};

/**
 * Assigns addresses/sizes for all functions in a registry.
 * Functions registered after construction are placed lazily, in
 * first-use order (deterministic for a deterministic simulation).
 */
class CodeLayout
{
  public:
    CodeLayout(const FuncRegistry &registry,
               const LayoutOptions &options = {});

    /** Placement of @p id (lazily extends the layout). */
    const FuncCode &code(FuncId id);

    /**
     * FuncId of the @p idx'th synthetic callee of @p parent
     * (registered lazily as "<parent>::part#<idx>", same kind). Builds
     * a name and takes the registry lock: callers on a hot path
     * cache the result (the Synthesizer does, per function).
     */
    FuncId childFunc(FuncId parent, unsigned idx);

    /** Total text bytes laid out so far. */
    std::uint64_t totalCodeBytes() const { return nextAddr_ - base_; }

    const LayoutOptions &options() const { return options_; }

  private:
    void place(FuncId id);

    const FuncRegistry &registry_;
    LayoutOptions options_;
    HostAddr base_;
    HostAddr nextAddr_;
    std::vector<FuncCode> codes_;
};

} // namespace g5p::trace

#endif // G5P_TRACE_CODE_LAYOUT_HH
