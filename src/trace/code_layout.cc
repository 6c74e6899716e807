#include "trace/code_layout.hh"

#include "base/logging.hh"

namespace g5p::trace
{

const CodegenParams &
codegenParams(FuncKind kind)
{
    // Sizes follow the footprint hierarchy of gem5's subsystems: the
    // detailed CPU stage bodies and the cache access paths are the
    // big, branchy functions; stats and helpers are small. Virtual
    // dispatch density is carried per call site (FuncInfo::isVirtual).
    // size / executed / insts-per-branch / stack / uops /
    // subFuncs / childCallsPer100 / virtualChildFrac
    static const CodegenParams table[] = {
        /* EventLoop    */ {448, 0.55, 5.0, 1.0, 1.10,
                            72, 6.0, 0.30},
        /* EventHandler */ {544, 0.55, 5.0, 1.5, 1.10,
                            96, 6.5, 0.40},
        /* CpuSimple    */ {576, 0.50, 5.5, 2.0, 1.10,
                            28, 5.0, 0.40},
        /* CpuDetailed  */ {896, 0.48, 4.5, 2.5, 1.12,
                            64, 5.0, 0.50},
        /* InstExecute  */ {288, 0.50, 5.5, 1.5, 1.10,
                            6, 2.0, 0.35},
        /* Decode       */ {480, 0.45, 4.0, 1.0, 1.08,
                            18, 3.5, 0.30},
        /* MemAccess    */ {704, 0.48, 4.5, 2.0, 1.10,
                            72, 5.5, 0.45},
        /* MemAtomic    */ {448, 0.48, 4.5, 2.0, 1.10,
                            12, 4.0, 0.40},
        /* TlbWalk      */ {416, 0.48, 5.0, 1.5, 1.10,
                            16, 3.5, 0.35},
        /* Syscall      */ {640, 0.50, 5.0, 2.0, 1.10,
                            36, 4.5, 0.35},
        /* KernelSim    */ {576, 0.50, 4.5, 2.0, 1.10,
                            44, 4.5, 0.40},
        /* Stats        */ {208, 0.70, 6.0, 1.0, 1.05,
                            14, 2.5, 0.20},
        /* Util         */ {160, 0.70, 6.5, 0.5, 1.05,
                            8, 1.5, 0.20},
    };
    static_assert(sizeof(table) / sizeof(table[0]) ==
                  (std::size_t)FuncKind::NumKinds);
    auto idx = (std::size_t)kind;
    g5p_assert(idx < (std::size_t)FuncKind::NumKinds,
               "bad FuncKind %zu", idx);
    return table[idx];
}

CodeLayout::CodeLayout(const FuncRegistry &registry,
                       const LayoutOptions &options)
    : registry_(registry),
      options_(options),
      base_(options.codeBase),
      nextAddr_(options.codeBase)
{
}

void
CodeLayout::place(FuncId id)
{
    const FuncInfo &info = registry_.info(id);
    const CodegenParams &params = codegenParams(info.kind);

    // Deterministic per-function size jitter: the same function gets
    // the same size in every layout (keyed by name only, so build
    // flags change placement, not machine-code sizes).
    Rng rng(Rng::hashString(info.name.c_str()));
    double jitter = 0.5 + rng.uniform(); // [0.5, 1.5)
    double bytes = params.meanCodeBytes * jitter;
    auto size = (std::uint32_t)bytes;
    if (size < 32)
        size = 32;
    // Functions are 16-byte aligned, as the compiler emits them.
    size = (size + 15u) & ~15u;

    auto executed =
        (std::uint32_t)(size * params.executedFraction);
    if (executed < 16)
        executed = 16;

    if (codes_.size() <= id)
        codes_.resize(id + 1);
    codes_[id] = FuncCode{nextAddr_, size, executed,
                          Rng::hashString(info.name.c_str())};
    auto padded = (std::uint64_t)(size * options_.paddingFactor);
    // Link-order gap: the seed (i.e. the build) decides how functions
    // pack, which is what reshuffles i-cache conflicts across builds.
    std::uint64_t gap =
        (Rng::hashString(info.name.c_str()) ^
         (options_.seed * 0x9e3779b97f4a7c15ULL)) % 192;
    nextAddr_ += ((padded + gap) + 15u) & ~15ull;
}

const FuncCode &
CodeLayout::code(FuncId id)
{
    if (id >= codes_.size() || codes_[id].sizeBytes == 0)
        place(id);
    return codes_[id];
}

FuncId
CodeLayout::childFunc(FuncId parent, unsigned idx)
{
    auto &registry = FuncRegistry::instance();
    const FuncInfo &info = registry.info(parent);
    // "#<n>" keys collide with opcode-keyed specializations of the
    // same base name, so embed the child index in the name itself.
    return registry.lookup(info.name + "::part" + std::to_string(idx),
                           info.kind, false);
}

} // namespace g5p::trace
