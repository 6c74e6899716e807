/**
 * @file
 * Memory request/response packets, after gem5's classic-memory Packet.
 *
 * Design note: mg5 separates *functional* data movement from *timing*.
 * Byte data lives only in PhysicalMemory and is read/written
 * functionally at access time; caches carry tag/dirty state and model
 * latency, occupancy and coherence traffic. This "timing-tags +
 * functional backing store" organization (used by e.g. zsim) keeps the
 * memory system exact in what the profiling study needs — event counts,
 * function footprint, latencies — without per-line data arrays.
 */

#ifndef G5P_MEM_PACKET_HH
#define G5P_MEM_PACKET_HH

#include <cstdint>
#include <string>

#include "base/types.hh"
#include "mem/packet_pool.hh"
#include "trace/recorder.hh"

namespace g5p::mem
{

/** Guest cache line size in bytes (all levels). */
constexpr unsigned lineBytes = 64;

/** Packet commands. */
enum class MemCmd : std::uint8_t
{
    ReadReq,        ///< demand read (data or ifetch)
    ReadResp,
    WriteReq,       ///< demand write
    WriteResp,
    ReadExReq,      ///< read-for-ownership (store miss fill)
    ReadExResp,
    WritebackDirty, ///< eviction of a dirty line (no response)
    InvalidateReq,  ///< coherence invalidation (no response)
    UpgradeReq,     ///< S->M ownership upgrade (no data transfer)
    UpgradeResp,
};

/** Command name for diagnostics. */
const char *memCmdName(MemCmd cmd);

/**
 * One memory transaction. Packets are heap-allocated on the timing
 * path and owned by whoever currently holds the pointer, as in gem5.
 */
class Packet
{
  public:
    Packet(MemCmd cmd, Addr addr, unsigned size)
        : cmd_(cmd), addr_(addr), size_(size)
    {
        // Packets are allocated at high rate on the timing path; the
        // allocator churn is real simulator data traffic. The charge
        // is recorded here (not in the pool) so the recorded stream
        // never depends on pool state such as slab growth.
        trace::recordHeapAlloc(sizeof(Packet));
    }

    /** @{ Dynamic packets recycle through the packet pool. */
    static void *
    operator new(std::size_t size)
    {
        return PacketPool::allocate(size);
    }

    static void
    operator delete(void *p, std::size_t size) noexcept
    {
        PacketPool::deallocate(p, size);
    }
    /** @} */

    MemCmd cmd() const { return cmd_; }
    Addr addr() const { return addr_; }
    unsigned size() const { return size_; }

    /** Address of the containing cache line. */
    Addr lineAddr() const { return addr_ & ~(Addr)(lineBytes - 1); }

    bool isRead() const
    { return cmd_ == MemCmd::ReadReq || cmd_ == MemCmd::ReadExReq; }
    bool isWrite() const { return cmd_ == MemCmd::WriteReq; }
    bool isWriteback() const { return cmd_ == MemCmd::WritebackDirty; }
    bool isInvalidate() const { return cmd_ == MemCmd::InvalidateReq; }

    /** Ownership upgrade for a line already held Shared. */
    bool isUpgrade() const
    {
        return cmd_ == MemCmd::UpgradeReq ||
               cmd_ == MemCmd::UpgradeResp;
    }

    bool
    isResponse() const
    {
        return cmd_ == MemCmd::ReadResp || cmd_ == MemCmd::WriteResp ||
               cmd_ == MemCmd::ReadExResp ||
               cmd_ == MemCmd::UpgradeResp;
    }

    bool
    needsResponse() const
    {
        return cmd_ == MemCmd::ReadReq || cmd_ == MemCmd::WriteReq ||
               cmd_ == MemCmd::ReadExReq || cmd_ == MemCmd::UpgradeReq;
    }

    /** Does this request need the line in exclusive/dirty state? */
    bool
    needsExclusive() const
    {
        return cmd_ == MemCmd::WriteReq || cmd_ == MemCmd::ReadExReq ||
               cmd_ == MemCmd::UpgradeReq;
    }

    /** Convert a request in place into its response. */
    void makeResponse();

    /** Instruction-fetch flag (routes to the I side of split L1s). */
    void setInstFetch(bool v) { instFetch_ = v; }
    bool isInstFetch() const { return instFetch_; }

    /**
     * @{ On fill responses: whether the requester may write the line
     * (no other cache holds a copy). Set by the coherent xbar.
     */
    void setWritable(bool v) { writable_ = v; }
    bool writable() const { return writable_; }
    /** @} */

    /** @{ Requestor bookkeeping (which CPU/port issued this). */
    void setRequestorId(int id) { requestorId_ = id; }
    int requestorId() const { return requestorId_; }
    /** @} */

    /** @{ Opaque pointer the sender can use to match responses. */
    void setSenderState(void *state) { senderState_ = state; }
    void *senderState() const { return senderState_; }
    /** @} */

    /**
     * @{ Intrusive singly-linked queue hook, used by the cache to
     * chain packets onto an MSHR's target list or the deferred
     * queue without a per-entry node allocation. A packet is on at
     * most one such queue at a time, and only while its owner (the
     * queue) holds the only pointer to it.
     */
    void setQueueNext(Packet *next) { queueNext_ = next; }
    Packet *queueNext() const { return queueNext_; }
    /** @} */

    /** Printable summary. */
    std::string toString() const;

  private:
    MemCmd cmd_;
    Addr addr_;
    unsigned size_;
    bool instFetch_ = false;
    bool writable_ = true;
    int requestorId_ = -1;
    void *senderState_ = nullptr;
    Packet *queueNext_ = nullptr;
};

static_assert(sizeof(Packet) <= PacketPool::blockSize,
              "Packet must fit a PacketPool block");

using PacketPtr = Packet *;

/**
 * Intrusive FIFO of packets chained through Packet::queueNext() —
 * MSHR target lists and the cache's deferred queue, with no
 * per-entry node allocation. The queue owns the packets it holds
 * (the usual one-owner rule); whoever drains or destroys it is
 * responsible for them.
 */
struct PacketQueue
{
    Packet *head = nullptr;
    Packet *tail = nullptr;

    bool empty() const { return head == nullptr; }

    void
    push(PacketPtr pkt)
    {
        pkt->setQueueNext(nullptr);
        if (tail)
            tail->setQueueNext(pkt);
        else
            head = pkt;
        tail = pkt;
    }

    /** Detach and return the oldest packet, or nullptr if empty. */
    PacketPtr
    pop()
    {
        Packet *pkt = head;
        if (pkt) {
            head = pkt->queueNext();
            if (!head)
                tail = nullptr;
            pkt->setQueueNext(nullptr);
        }
        return pkt;
    }
};

} // namespace g5p::mem

#endif // G5P_MEM_PACKET_HH
