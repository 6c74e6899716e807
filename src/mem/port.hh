/**
 * @file
 * Master/slave (request/response) ports connecting memory objects,
 * following gem5's port model with its three protocols:
 *
 *  - atomic: sendAtomic returns the full latency immediately (used by
 *    the AtomicSimpleCPU);
 *  - functional: data access with no timing side effects;
 *  - timing: requests flow downstream, responses return later through
 *    recvTimingResp, driven by events.
 *
 * mg5 simplifies gem5's flow control: timing requests are always
 * accepted (queueing delays are modeled inside the receiving objects),
 * so there is no retry protocol.
 *
 * Hot/cold split: the send* calls are the inner edges of the whole
 * detailed-model call chain (CPU -> L1 -> xbar -> L2 -> DRAM and
 * back), so their bodies live here in the header — after inlining, a
 * send is the peer-pointer load plus the virtual recv* dispatch, with
 * no extra call frame in between. Binding and unbinding stay
 * out-of-line in port.cc; they run a handful of times per machine.
 */

#ifndef G5P_MEM_PORT_HH
#define G5P_MEM_PORT_HH

#include <string>

#include "base/compiler.hh"
#include "base/logging.hh"
#include "mem/packet.hh"

namespace g5p::mem
{

class RequestPort;
class ResponsePort;

/**
 * Interposer on the timing-response path, consulted by every
 * ResponsePort::sendTimingResp before delivery. The one installation
 * point covers DRAM, caches and crossbars alike, so a FaultInjector
 * can drop or delay any response in the machine without the memory
 * objects knowing. At most one hook is installed at a time (mg5 is
 * single threaded); install(nullptr) removes it.
 */
class TimingFaultHook
{
  public:
    virtual ~TimingFaultHook() = default;

    /**
     * Called with the response about to be delivered from @p src to
     * @p dst. Return true to let delivery proceed; return false to
     * swallow the packet (the hook then owns @p pkt and must delete
     * it or deliver it later via dst.recvTimingResp).
     */
    virtual bool onTimingResp(ResponsePort &src, RequestPort &dst,
                              PacketPtr pkt) = 0;

    /** Install a hook (nullptr to remove); returns the previous one. */
    static TimingFaultHook *
    install(TimingFaultHook *hook)
    {
        TimingFaultHook *prev = installed_;
        installed_ = hook;
        return prev;
    }

    /** The installed hook, or nullptr. */
    static TimingFaultHook *current() { return installed_; }

  private:
    friend class ResponsePort;

    /**
     * Thread-local: a FaultInjector interposes on its own run only;
     * concurrent clean runs on other threads must not see its hook.
     * The clean-path cost is one TLS load and a predictable branch on
     * every response. (constinit: GCC 12's UBSan miscompiles the lazy
     * TLS init guard of non-constinit thread_local pointers.)
     */
    static constinit inline thread_local TimingFaultHook *installed_ =
        nullptr;
};

/** Upstream side: issues requests, receives responses. */
class RequestPort
{
  public:
    explicit RequestPort(std::string name) : name_(std::move(name)) {}
    virtual ~RequestPort() = default;

    /** Connect to the downstream port (one-to-one). */
    void bind(ResponsePort &peer);

    /**
     * Disconnect from the downstream port (both directions), so the
     * pair can be re-bound — e.g. a cache's cpu-side port surviving a
     * CPU-model switch. No-op when unbound; must not be called with a
     * transaction in flight across the link.
     */
    void unbind();

    const std::string &name() const { return name_; }

    /** Atomic access: returns total latency in ticks. */
    G5P_HOT Tick sendAtomic(Packet &pkt);

    /** Functional access: no timing. */
    void sendFunctional(Packet &pkt);

    /** Timing request: ownership of @p pkt passes downstream. */
    G5P_HOT void sendTimingReq(PacketPtr pkt);

    /** Response delivery (called by the peer). */
    virtual void recvTimingResp(PacketPtr pkt) = 0;

  private:
    std::string name_;
    ResponsePort *peer_ = nullptr;
};

/** Downstream side: receives requests, issues responses. */
class ResponsePort
{
  public:
    explicit ResponsePort(std::string name) : name_(std::move(name)) {}
    virtual ~ResponsePort() = default;

    const std::string &name() const { return name_; }

    virtual Tick recvAtomic(Packet &pkt) = 0;
    virtual void recvFunctional(Packet &pkt) = 0;
    virtual void recvTimingReq(PacketPtr pkt) = 0;

    /** Deliver a response (or snoop) upstream. */
    G5P_HOT void
    sendTimingResp(PacketPtr pkt)
    {
        g5p_assert(peer_, "response through unbound port '%s'",
                   name_.c_str());
        TimingFaultHook *hook = TimingFaultHook::installed_;
        if (G5P_UNLIKELY(hook != nullptr) &&
            !hook->onTimingResp(*this, *peer_, pkt))
            return;
        peer_->recvTimingResp(pkt);
    }

  private:
    friend class RequestPort;
    std::string name_;
    RequestPort *peer_ = nullptr;
};

inline Tick
RequestPort::sendAtomic(Packet &pkt)
{
    g5p_assert(peer_, "atomic access through unbound port '%s'",
               name_.c_str());
    return peer_->recvAtomic(pkt);
}

inline void
RequestPort::sendFunctional(Packet &pkt)
{
    g5p_assert(peer_, "functional access through unbound port '%s'",
               name_.c_str());
    peer_->recvFunctional(pkt);
}

inline void
RequestPort::sendTimingReq(PacketPtr pkt)
{
    g5p_assert(peer_, "timing access through unbound port '%s'",
               name_.c_str());
    peer_->recvTimingReq(pkt);
}

} // namespace g5p::mem

#endif // G5P_MEM_PORT_HH
