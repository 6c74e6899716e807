/**
 * @file
 * SimObject: the base class of every simulated component in mg5.
 *
 * Like gem5's SimObject it combines a name, an event-scheduling
 * capability, a statistics group, and checkpoint support. SimObjects
 * also register a synthetic host-side data footprint with the trace
 * DataSpace so the host d-cache model sees accesses to their state.
 */

#ifndef G5P_SIM_SIM_OBJECT_HH
#define G5P_SIM_SIM_OBJECT_HH

#include <string>
#include <vector>

#include "sim/eventq.hh"
#include "sim/serialize.hh"
#include "sim/stats.hh"
#include "trace/recorder.hh"

namespace g5p::sim
{

class Simulator;

/**
 * Base class for all simulated hardware/software components.
 *
 * Lifecycle (driven by Simulator): construct -> init() on all objects
 * -> regStats() on all objects -> startup() on all objects -> event
 * loop. Matches gem5's phases.
 */
class SimObject : public EventManager, public stats::Group,
                  public Serializable
{
  public:
    /**
     * @param sim owning simulator (provides the event queue and the
     *            registration list)
     * @param name instance name, e.g. "cpu0"
     * @param parent stats parent; defaults to the simulator root
     * @param state_bytes approximate host footprint of this object's
     *            mutable state, for the d-side trace model. Zero means
     *            "use a small default".
     */
    SimObject(Simulator &sim, const std::string &name,
              stats::Group *parent = nullptr,
              std::size_t state_bytes = 0);

    ~SimObject() override;

    /** Instance name. */
    const std::string &name() const { return name_; }

    /**
     * Stable per-simulator numeric id, assigned in registration
     * (construction) order starting at 1; 0 is the simulator root.
     * Identical configurations get identical ids, so telemetry can
     * key trace tracks on them across runs.
     */
    std::uint32_t id() const { return id_; }

    /** Phase 1: resolve inter-object references. */
    virtual void init() {}

    /** Phase 3: schedule initial events. */
    virtual void startup() {}

    /** Checkpoint hooks default to empty for stateless objects. */
    void serialize(CheckpointOut &cp) const override {}
    void unserialize(const CheckpointIn &cp) override {}

    /** Owning simulator. */
    Simulator &simulator() const { return sim_; }

    /**
     * Record a host-side access to this object's own state. Size is
     * clamped to the registered footprint. Offsets let distinct fields
     * land on distinct host cache lines.
     */
    void
    touchState(std::size_t offset, std::uint32_t size,
               bool is_write) const
    {
        trace::recordData(stateBase_ + offset % stateBytes_, size,
                          is_write);
    }

    /** Size of the state region in bytes. */
    std::size_t stateBytes() const { return stateBytes_; }

  private:
    friend class Simulator;

    Simulator &sim_;
    std::string name_;
    /** Assigned by Simulator::registerObject. */
    std::uint32_t id_ = 0;
    /** True once Simulator::initPhase has run this object's
     *  init/regStats/startup phases (objects constructed after the
     *  first run — a CPU-model switch — get them on the next pass). */
    bool phased_ = false;
    HostAddr stateBase_;
    std::size_t stateBytes_;
};

} // namespace g5p::sim

#endif // G5P_SIM_SIM_OBJECT_HH
