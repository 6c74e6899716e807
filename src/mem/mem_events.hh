/**
 * @file
 * Pooled, packet-owning events for the timing memory path.
 *
 * Every delayed hop a packet takes — cache tag/data stages, xbar
 * forwarding, the DRAM response, a fault injector's delayed delivery
 * — used to be a scheduleOneShot() lambda: one pooled event, plus a
 * std::function capture, plus a freshly concatenated name string per
 * hop ("cpu0.icache.delayed" is past the SSO limit, so the busiest
 * allocation site on the whole detailed path was a *label*). The
 * typed events below replace that with plain members; the name is
 * built only when diagnostics ask for it.
 *
 * Ownership: each event owns its packet from construction until the
 * moment it fires (take() hands the packet to the port/handler). An
 * event destroyed *unfired* — EventQueue::clear() at teardown or
 * before a checkpoint restore — deletes the packet in its destructor.
 * That closes the leak the lambda pattern had (a packet captured in a
 * cleared std::function leaked silently) and is what lets the
 * Simulator assert PacketPool::outstanding() returns to baseline at
 * every quiescent point and at teardown.
 *
 * Byte-identity: these events schedule at the same ticks, with the
 * same DefaultPri, from the same call sites in the same order as the
 * wrappers they replace, so (when, priority, sequence) keys — and
 * therefore service order, stats and commit traces — are unchanged.
 */

#ifndef G5P_MEM_MEM_EVENTS_HH
#define G5P_MEM_MEM_EVENTS_HH

#include <string>

#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/eventq.hh"

namespace g5p::mem
{

/**
 * Base: a pool-allocated, auto-delete event owning one packet until
 * it fires. Subclasses call take() exactly once, in process().
 */
class PooledPacketEvent : public sim::Event
{
  public:
    /** @{ Dynamic events recycle through the event pool. */
    static void *
    operator new(std::size_t size)
    {
        return sim::EventPool::allocate(size);
    }

    static void
    operator delete(void *p, std::size_t size) noexcept
    {
        sim::EventPool::deallocate(p, size);
    }
    /** @} */

    /** Deletes the packet if the event never fired (teardown
     *  drain); a no-op after take(). */
    ~PooledPacketEvent() override { delete pkt_; }

  protected:
    explicit PooledPacketEvent(PacketPtr pkt) : pkt_(pkt)
    {
        setAutoDelete(true);
    }

    /** Release ownership of the packet to the caller. */
    G5P_HOT PacketPtr
    take()
    {
        PacketPtr pkt = pkt_;
        pkt_ = nullptr;
        return pkt;
    }

  private:
    PacketPtr pkt_;
};

/**
 * Deliver a response upstream through a ResponsePort after a delay:
 * the cache hit/fill-drain path, the xbar's upgrade turnaround and
 * response forwarding, and the DRAM reply. With @p make_response the
 * pending request is converted in place first.
 */
class PacketRespEvent final : public PooledPacketEvent
{
  public:
    PacketRespEvent(ResponsePort &port, PacketPtr pkt,
                    bool make_response)
        : PooledPacketEvent(pkt), port_(port),
          makeResponse_(make_response)
    {
    }

    G5P_HOT void
    process() override
    {
        PacketPtr pkt = take();
        if (makeResponse_)
            pkt->makeResponse();
        port_.sendTimingResp(pkt);
    }

    std::string name() const override { return port_.name() + ".resp"; }

  private:
    ResponsePort &port_;
    bool makeResponse_;
};

/**
 * Forward a request downstream through a RequestPort after a delay
 * (the xbar's frontend stage). The writable grant decided by the
 * snoop pass at schedule time is re-applied at delivery, exactly as
 * the lambda capture used to.
 */
class PacketReqEvent final : public PooledPacketEvent
{
  public:
    PacketReqEvent(RequestPort &port, PacketPtr pkt)
        : PooledPacketEvent(pkt), port_(port),
          writable_(pkt->writable())
    {
    }

    G5P_HOT void
    process() override
    {
        PacketPtr pkt = take();
        pkt->setWritable(writable_);
        port_.sendTimingReq(pkt);
    }

    std::string name() const override { return port_.name() + ".req"; }

  private:
    RequestPort &port_;
    bool writable_;
};

/**
 * Hand a response directly to a RequestPort's receiver, bypassing
 * sendTimingResp and its fault hook — the FaultInjector's delayed
 * delivery (re-consulting the hook would let one response be delayed
 * forever).
 */
class PacketDeliverEvent final : public PooledPacketEvent
{
  public:
    PacketDeliverEvent(RequestPort &port, PacketPtr pkt)
        : PooledPacketEvent(pkt), port_(port)
    {
    }

    void process() override { port_.recvTimingResp(take()); }

    std::string
    name() const override
    {
        return port_.name() + ".delayedResp";
    }

  private:
    RequestPort &port_;
};

/**
 * Hand the packet to a member function of its owner after a delay —
 * the cache's post-tag-lookup continuation and deferred-queue retry.
 * Named "<owner>.access", so the profiler charges it to the owning
 * SimObject.
 */
template <auto F>
class PacketMemberEvent;

template <typename T, void (T::*F)(PacketPtr)>
class PacketMemberEvent<F> final : public PooledPacketEvent
{
  public:
    PacketMemberEvent(T &owner, PacketPtr pkt)
        : PooledPacketEvent(pkt), owner_(owner)
    {
    }

    G5P_HOT void process() override { (owner_.*F)(take()); }

    std::string name() const override { return owner_.name() + ".access"; }

  private:
    T &owner_;
};

static_assert(sizeof(PacketRespEvent) <= sim::EventPool::blockSize,
              "PacketRespEvent must fit an EventPool block");
static_assert(sizeof(PacketReqEvent) <= sim::EventPool::blockSize,
              "PacketReqEvent must fit an EventPool block");
static_assert(sizeof(PacketDeliverEvent) <= sim::EventPool::blockSize,
              "PacketDeliverEvent must fit an EventPool block");

} // namespace g5p::mem

#endif // G5P_MEM_MEM_EVENTS_HH
