/**
 * @file
 * Function-level call counting: counts calls and distinct functions
 * reached during a profiled simulation. The ranked Fig. 15 profile is
 * core::HostProfile (core/telemetry.hh).
 */

#ifndef G5P_CORE_FUNC_PROFILE_HH
#define G5P_CORE_FUNC_PROFILE_HH

#include <vector>

#include "trace/recorder.hh"

namespace g5p::core
{

/** Call-count collector (a trace consumer). */
class FuncProfile : public trace::TraceConsumer
{
  public:
    void
    funcEnter(trace::FuncId id) override
    {
        if (calls_.size() <= id)
            calls_.resize(id + 1, 0);
        ++calls_[id];
    }

    void funcExit(trace::FuncId id) override {}
    void dataRef(HostAddr addr, std::uint32_t size,
                 bool is_write) override {}

    /** Number of distinct functions called at least once. */
    std::size_t distinctFunctions() const;

    const std::vector<std::uint64_t> &calls() const { return calls_; }

  private:
    std::vector<std::uint64_t> calls_;
};

} // namespace g5p::core

#endif // G5P_CORE_FUNC_PROFILE_HH
