#include "sim/sim_object.hh"

#include "sim/simulator.hh"

namespace g5p::sim
{

namespace
{

/** Default synthetic state footprint for objects that do not say. */
constexpr std::size_t defaultStateBytes = 256;

} // namespace

SimObject::SimObject(Simulator &sim, const std::string &name,
                     stats::Group *parent, std::size_t state_bytes)
    : EventManager(sim.eventq()),
      stats::Group(parent ? parent : &sim, name),
      sim_(sim),
      name_(name),
      stateBytes_(state_bytes ? state_bytes : defaultStateBytes)
{
    stateBase_ = trace::DataSpace::instance().alloc(stateBytes_);
    sim_.registerObject(this);
}

SimObject::~SimObject()
{
    sim_.unregisterObject(this);
}

} // namespace g5p::sim
