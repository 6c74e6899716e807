#include "trace/func_registry.hh"

#include "base/logging.hh"

namespace g5p::trace
{

const char *
funcKindName(FuncKind kind)
{
    switch (kind) {
      case FuncKind::EventLoop:    return "EventLoop";
      case FuncKind::EventHandler: return "EventHandler";
      case FuncKind::CpuSimple:    return "CpuSimple";
      case FuncKind::CpuDetailed:  return "CpuDetailed";
      case FuncKind::InstExecute:  return "InstExecute";
      case FuncKind::Decode:       return "Decode";
      case FuncKind::MemAccess:    return "MemAccess";
      case FuncKind::MemAtomic:    return "MemAtomic";
      case FuncKind::TlbWalk:      return "TlbWalk";
      case FuncKind::Syscall:      return "Syscall";
      case FuncKind::KernelSim:    return "KernelSim";
      case FuncKind::Stats:        return "Stats";
      case FuncKind::Util:         return "Util";
      default:                     return "Unknown";
    }
}

FuncRegistry &
FuncRegistry::instance()
{
    static FuncRegistry reg;
    return reg;
}

FuncId
FuncRegistry::lookup(const std::string &name, FuncKind kind,
                     bool is_virtual)
{
    return lookupKeyed(name, kind, 0, is_virtual);
}

FuncId
FuncRegistry::lookupKeyed(const std::string &name, FuncKind kind,
                          std::uint32_t key, bool is_virtual)
{
    std::string full = key ? name + "#" + std::to_string(key) : name;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = byName_.find(full);
    if (it != byName_.end())
        return it->second;

    FuncId id = count_.load(std::memory_order_relaxed);
    g5p_assert(id < maxChunks * chunkEntries,
               "function registry full (%u entries)", id);
    std::size_t chunk = id >> chunkShift;
    FuncInfo *entries = chunks_[chunk].load(std::memory_order_relaxed);
    if (!entries) {
        entries = new FuncInfo[chunkEntries];
        chunks_[chunk].store(entries, std::memory_order_relaxed);
    }
    entries[id & (chunkEntries - 1)] =
        FuncInfo{std::move(full), kind, is_virtual, key};
    byName_.emplace(entries[id & (chunkEntries - 1)].name, id);
    // Publish: readers acquire on count_, which orders the chunk
    // pointer store and the entry construction above.
    count_.store(id + 1, std::memory_order_release);
    return id;
}

void
FuncRegistry::g5p_registry_check(FuncId id) const
{
    g5p_assert(id < count_.load(std::memory_order_acquire),
               "bad FuncId %u", id);
}

} // namespace g5p::trace
