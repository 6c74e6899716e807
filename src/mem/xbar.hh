/**
 * @file
 * Coherent crossbar connecting private L1 caches to a shared L2.
 *
 * Coherence follows gem5's "express snoop" approach: invalidations of
 * sibling L1 copies happen as direct calls during request processing,
 * with their latency charged to the requesting transaction. A snoop
 * filter tracks which upstream caches may hold each line so that
 * snoops are only charged when a sibling actually holds a copy.
 *
 * The filter is an open-addressed AddrTable (one flat array, linear
 * probing) rather than a std::unordered_map: every timing and atomic
 * transaction probes it, so the per-access node chase and allocator
 * traffic of the map were pure hot-path overhead. The serialized
 * checkpoint form (sorted address/mask vectors) is unchanged.
 */

#ifndef G5P_MEM_XBAR_HH
#define G5P_MEM_XBAR_HH

#include <memory>
#include <vector>

#include "mem/addr_table.hh"
#include "mem/cache.hh"
#include "mem/mem_events.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/clocked_object.hh"

namespace g5p::mem
{

/** Crossbar latency/width parameters. */
struct XbarParams
{
    Cycles frontendLatency = 1; ///< request pass-through latency
    Cycles responseLatency = 1; ///< response pass-through latency
    Cycles snoopLatency = 1;    ///< added per sibling invalidation
};

class CoherentXbar : public sim::ClockedObject
{
  public:
    CoherentXbar(sim::Simulator &sim, const std::string &name,
                 const sim::ClockDomain &domain,
                 const XbarParams &params);
    ~CoherentXbar() override;

    /**
     * Create a new upstream port and associate it with @p snooper,
     * the L1 cache whose mem-side will bind to it (nullptr for
     * non-caching requestors). Returns the port.
     */
    ResponsePort &addUpstreamPort(Cache *snooper);

    /** Downstream port (binds to the L2's cpu side). */
    RequestPort &memSidePort() { return memPort_; }

    /** @{ Coherence introspection for the tester and invariants. */
    /** Bitmask of upstream ports that may hold @p addr's line. */
    std::uint32_t holdersOf(Addr addr) const;
    /** The snooping cache behind upstream port @p i (may be null). */
    Cache *snooper(unsigned i) const { return snoopers_[i]; }
    /** Lines currently tracked with more than one possible holder. */
    unsigned sharedLineCount() const;
    /** @} */

    /** @{ Host-side observability of the snoop filter (plain
     *  counters, not stat lines — probe placement depends on
     *  insertion history, so these can never be checkpoint-stable).
     *  Average probe length = 1 + steps/probes. */
    std::size_t filterSize() const { return snoopFilter_.size(); }
    std::size_t filterCapacity() const
    { return snoopFilter_.capacity(); }
    std::uint64_t filterProbes() const
    { return snoopFilter_.probes(); }
    std::uint64_t filterProbeSteps() const
    { return snoopFilter_.probeSteps(); }
    /** @} */

    void serialize(sim::CheckpointOut &cp) const override;
    void unserialize(const sim::CheckpointIn &cp) override;

    void regStats() override;

  private:
    class UpstreamPort : public ResponsePort
    {
      public:
        UpstreamPort(CoherentXbar &xbar, unsigned index,
                     const std::string &name)
            : ResponsePort(name), xbar_(xbar), index_(index)
        {}
        Tick recvAtomic(Packet &pkt) override
        { return xbar_.recvAtomic(pkt, index_); }
        void recvFunctional(Packet &pkt) override
        { xbar_.recvFunctional(pkt); }
        void recvTimingReq(PacketPtr pkt) override
        { xbar_.recvTimingReq(pkt, index_); }

      private:
        CoherentXbar &xbar_;
        unsigned index_;
    };

    class MemSidePort : public RequestPort
    {
      public:
        MemSidePort(CoherentXbar &xbar, const std::string &name)
            : RequestPort(name), xbar_(xbar)
        {}
        void recvTimingResp(PacketPtr pkt) override
        { xbar_.recvTimingResp(pkt); }

      private:
        CoherentXbar &xbar_;
    };

    Tick recvAtomic(Packet &pkt, unsigned from);
    void recvFunctional(Packet &pkt);
    void recvTimingReq(PacketPtr pkt, unsigned from);
    void recvTimingResp(PacketPtr pkt);

    /**
     * Snoop-filter update + sibling invalidation for one request.
     * @return number of siblings invalidated (each costs
     *         snoopLatency) — and sets pkt's writable flag.
     */
    G5P_HOT unsigned processSnoops(Packet &pkt, unsigned from);

    XbarParams params_;
    std::vector<std::unique_ptr<UpstreamPort>> upstreamPorts_;
    std::vector<Cache *> snoopers_;
    MemSidePort memPort_;

    /** line address -> bitmask of upstream holders. */
    AddrTable<std::uint32_t> snoopFilter_;

    sim::stats::Scalar transactions_;
    sim::stats::Scalar snoopInvalidations_;
    sim::stats::Scalar filterEntriesPeak_;
};

} // namespace g5p::mem

#endif // G5P_MEM_XBAR_HH
