/**
 * @file
 * Clock domains and clocked objects, following gem5's design: a
 * ClockedObject translates between cycles of its clock domain and
 * global ticks.
 */

#ifndef G5P_SIM_CLOCKED_OBJECT_HH
#define G5P_SIM_CLOCKED_OBJECT_HH

#include "base/logging.hh"
#include "sim/sim_object.hh"

namespace g5p::sim
{

/** A shared clock source with a fixed period in ticks. */
class ClockDomain
{
  public:
    /** @param period_ticks ticks per cycle; must be nonzero. */
    explicit ClockDomain(Tick period_ticks)
        : period_(period_ticks)
    {
        g5p_assert(period_ > 0, "zero clock period");
    }

    /** Construct from a frequency in MHz. */
    static ClockDomain
    fromMHz(std::uint64_t mhz)
    {
        return ClockDomain(ticksForMHz(mhz));
    }

    Tick period() const { return period_; }

  private:
    Tick period_;
};

/**
 * A SimObject driven by a clock domain; provides cycle arithmetic
 * anchored at tick 0 (all domains are phase-aligned, as in gem5's
 * default SrcClockDomain).
 */
class ClockedObject : public SimObject
{
  public:
    ClockedObject(Simulator &sim, const std::string &name,
                  const ClockDomain &domain,
                  stats::Group *parent = nullptr,
                  std::size_t state_bytes = 0)
        : SimObject(sim, name, parent, state_bytes),
          period_(domain.period())
    {}

    /** Current time in whole cycles. */
    Cycles
    curCycle() const
    {
        return curTick() / period_;
    }

    /**
     * Tick of the next clock edge at least @p cycles cycles in the
     * future (gem5's clockEdge).
     */
    Tick
    clockEdge(Cycles cycles = 0) const
    {
        Tick now = curTick();
        Tick aligned = ((now + period_ - 1) / period_) * period_;
        if (aligned == now && cycles == 0)
            return now;
        if (aligned == now)
            return now + cycles * period_;
        return aligned + (cycles ? (cycles - 1) * period_ : 0);
    }

    /** Convert a cycle count to ticks. */
    Tick cyclesToTicks(Cycles c) const { return c * period_; }

    /** Convert ticks to whole cycles (rounding up). */
    Cycles
    ticksToCycles(Tick t) const
    {
        return (t + period_ - 1) / period_;
    }

  private:
    Tick period_;
};

} // namespace g5p::sim

#endif // G5P_SIM_CLOCKED_OBJECT_HH
