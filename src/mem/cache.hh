/**
 * @file
 * Set-associative write-back cache with MSHRs, modeled on gem5's
 * classic `Cache`. Used for guest L1I, L1D, and the shared L2.
 *
 * Tags-only timing model: data lives in PhysicalMemory (see
 * mem/packet.hh). Lines track valid/dirty/writable; misses allocate
 * MSHRs that coalesce same-line requests; dirty victims generate
 * WritebackDirty packets downstream. Coherence between sibling L1s is
 * invalidation-based, orchestrated by the CoherentXbar.
 *
 * The valid/writable/dirty bits encode a MESI state machine:
 * Invalid (!valid), Shared (valid, !writable), Exclusive (valid,
 * writable, !dirty), Modified (valid, writable, dirty). A write to a
 * Shared line raises an UpgradeReq (ownership only, no data); the
 * line stays readable while the upgrade is in flight (transient SM),
 * and a crossing invalidation downgrades the upgrade into a full
 * ReadEx refill (transient SM -> IM).
 *
 * Hot-path layout (the timing-round optimization pass):
 *  - tags are packed one-word TagWords, way-grouped per set in a
 *    single contiguous array, so an 8-way tag scan touches one host
 *    cache line instead of three; the cold LRU stamps live in a
 *    parallel array only the hit/victim paths touch;
 *  - MSHRs live in a fixed slab with an intrusive free list, found
 *    through an open-addressed line-address index (O(1)) instead of
 *    a std::list scan; coalesced targets and the deferred queue
 *    chain packets intrusively (Packet::queueNext) with no per-entry
 *    node allocation;
 *  - delayed work is typed pooled events (mem/mem_events.hh) rather
 *    than std::function wrappers with per-event name strings.
 */

#ifndef G5P_MEM_CACHE_HH
#define G5P_MEM_CACHE_HH

#include <vector>

#include "mem/addr_table.hh"
#include "mem/mem_events.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/clocked_object.hh"

namespace g5p::mem
{

/**
 * MESI coherence state of one line, decoded from the tag bits. The
 * stable states only; transient states live in the MSHRs (an MSHR
 * with isUpgrade set is SM; one whose fill is outstanding is IS/IM).
 */
enum class CoherState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** State name for diagnostics ("I"/"S"/"E"/"M"). */
const char *coherStateName(CoherState state);

/** Cache geometry and latency parameters. */
struct CacheParams
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    Cycles tagLatency = 1;      ///< lookup latency
    Cycles dataLatency = 1;     ///< added on hits
    Cycles responseLatency = 1; ///< fill-to-response latency
    unsigned numMshrs = 8;
    bool isL1 = false;          ///< participates in xbar snooping
};

class Cache : public sim::ClockedObject
{
  public:
    Cache(sim::Simulator &sim, const std::string &name,
          const sim::ClockDomain &domain, const CacheParams &params);
    ~Cache() override;

    /** Upstream (CPU or L1) side. */
    ResponsePort &cpuSidePort() { return cpuPort_; }

    /** Downstream (xbar, L2, or DRAM) side. */
    RequestPort &memSidePort() { return memPort_; }

    const CacheParams &params() const { return params_; }
    unsigned numSets() const { return numSets_; }

    /** True if the line containing @p addr is present. */
    bool isCached(Addr addr) const;

    /** MESI state of the line containing @p addr (no LRU touch). */
    CoherState coherenceStateOf(Addr addr) const;

    /** Coherence: drop the line (invalidate from a sibling). */
    void invalidateLine(Addr addr);

    /** Upgrades that lost the race to a crossing invalidation. */
    std::uint64_t upgradeRaces() const { return upgradeRaces_; }

    /** Fills whose permission grant a sibling stole in flight. */
    std::uint64_t fillRaces() const { return fillRaces_; }

    /** @{ Host-side observability of the MSHR line-address index
     *  (plain counters, not stat lines — probe placement depends on
     *  insertion history, so these can never be checkpoint-stable). */
    std::uint64_t mshrIndexProbes() const { return mshrIndex_.probes(); }
    std::uint64_t mshrIndexProbeSteps() const
    { return mshrIndex_.probeSteps(); }
    /** @} */

    /**
     * Checkpoint tags, line state and LRU clock. MSHRs and deferred
     * requests must be drained (quiescent point); asserted.
     */
    void serialize(sim::CheckpointOut &cp) const override;
    void unserialize(const sim::CheckpointIn &cp) override;

    void regStats() override;

    /** @{ Raw counters for tests and reports. */
    std::uint64_t hits() const { return (std::uint64_t)hits_.value(); }
    std::uint64_t misses() const
    { return (std::uint64_t)misses_.value(); }
    std::uint64_t writebacks() const
    { return (std::uint64_t)writebacks_.value(); }
    /** @} */

  private:
    /**
     * One packed tag entry: tag<<3 | writable<<2 | dirty<<1 | valid.
     * A whole way's state fits one 64-bit load, and the common "valid
     * and tag match" test is two mask-and-compares on one register.
     * (The *checkpoint* flag encoding — dirty=1, writable=2 — is
     * unchanged; serialize() re-derives it from the accessors.)
     */
    class TagWord
    {
      public:
        bool valid() const { return (bits_ & validBit) != 0; }
        bool dirty() const { return (bits_ & dirtyBit) != 0; }
        bool writable() const { return (bits_ & writableBit) != 0; }
        std::uint64_t tag() const { return bits_ >> tagShift; }

        /** The hit test: valid with a matching tag. */
        bool
        matches(std::uint64_t tag) const
        {
            return (bits_ & validBit) != 0 && (bits_ >> tagShift) == tag;
        }

        void
        setValid(bool v)
        {
            bits_ = v ? (bits_ | validBit) : (bits_ & ~validBit);
        }
        void
        setDirty(bool v)
        {
            bits_ = v ? (bits_ | dirtyBit) : (bits_ & ~dirtyBit);
        }
        void
        setWritable(bool v)
        {
            bits_ = v ? (bits_ | writableBit) : (bits_ & ~writableBit);
        }
        void
        setTag(std::uint64_t tag)
        {
            bits_ = (tag << tagShift) | (bits_ & flagMask);
        }

        void reset() { bits_ = 0; }

      private:
        static constexpr std::uint64_t validBit = 1;
        static constexpr std::uint64_t dirtyBit = 2;
        static constexpr std::uint64_t writableBit = 4;
        static constexpr std::uint64_t flagMask = 7;
        static constexpr unsigned tagShift = 3;

        std::uint64_t bits_ = 0;
    };
    static_assert(sizeof(TagWord) == 8, "TagWord must pack to a word");

    /**
     * One slab-resident MSHR. Slots come from an intrusive free list
     * over the fixed mshrSlab_ array; live slots are found through
     * mshrIndex_. Coalesced targets chain intrusively through the
     * packets themselves.
     */
    struct Mshr
    {
        Addr lineAddr = 0;
        PacketQueue targets;
        std::uint16_t nextFree = 0;
        bool inUse = false;
        bool needsExclusive = false;
        bool isUpgrade = false; ///< transient SM: fill is ownership-only
        /** A sibling's exclusive request raced ahead of the pending
         *  fill: its permission grant (and our snoop-filter bit) is
         *  void; the response drains its targets uncached instead of
         *  filling (re-requesting could livelock: two cores would
         *  steal each other's in-flight fills forever). */
        bool stolen = false;
    };

    /** "No MSHR" slot value (free-list end, index miss). */
    static constexpr std::uint16_t invalidMshr = 0xffff;

    class CpuSidePort : public ResponsePort
    {
      public:
        CpuSidePort(Cache &cache, const std::string &name)
            : ResponsePort(name), cache_(cache)
        {}
        Tick recvAtomic(Packet &pkt) override
        { return cache_.recvAtomic(pkt); }
        void recvFunctional(Packet &pkt) override
        { cache_.recvFunctional(pkt); }
        void recvTimingReq(PacketPtr pkt) override
        { cache_.recvTimingReq(pkt); }

      private:
        Cache &cache_;
    };

    class MemSidePort : public RequestPort
    {
      public:
        MemSidePort(Cache &cache, const std::string &name)
            : RequestPort(name), cache_(cache)
        {}
        void recvTimingResp(PacketPtr pkt) override
        { cache_.recvTimingResp(pkt); }

      private:
        Cache &cache_;
    };

    /** @{ Protocol entry points (via the ports). */
    Tick recvAtomic(Packet &pkt);
    void recvFunctional(Packet &pkt);
    void recvTimingReq(PacketPtr pkt);
    void recvTimingResp(PacketPtr pkt);
    /** @} */

    /** Tag lookup; returns the entry or nullptr. Touches LRU on hit. */
    G5P_HOT TagWord *lookup(Addr addr, bool update_lru);
    const TagWord *lookupConst(Addr addr) const;

    /** Pick a victim in the set of @p addr (invalid first, else LRU). */
    TagWord &victimFor(Addr addr);

    /** Install @p addr over the victim; emits writeback if needed. */
    TagWord &insertLine(Addr addr, bool writable, bool timing);

    /** Record a host-side touch of tag entry @p index. */
    void touchTagState(std::size_t index) const;

    /** Find the MSHR covering @p line_addr, or nullptr. O(1). */
    G5P_HOT Mshr *findMshr(Addr line_addr);

    /** Take a free MSHR slot for @p line_addr (caller checked one is
     *  free) and index it. */
    Mshr &allocMshr(Addr line_addr);

    /** Return @p mshr to the free list and drop its index entry. */
    void freeMshr(Mshr &mshr);

    /** Handle one demand request after the tag-lookup delay. */
    void satisfyTiming(PacketPtr pkt);

    /** Drain an MSHR's coalesced targets against a present line. */
    void completeMshr(Addr line_addr, TagWord &line);

    /** Drain a stolen MSHR's targets without installing the line
     *  (data comes from the functional backing store regardless). */
    void completeUncached(Addr line_addr);

    /** Pull one deferred request back into the pipeline, if any. */
    void retryDeferred();

    /** Continuation event for the post-tag-lookup stage. */
    using AccessEvent = PacketMemberEvent<&Cache::satisfyTiming>;

    /** Schedule satisfyTiming(@p pkt) after @p cycles. */
    void scheduleAccess(Cycles cycles, PacketPtr pkt);

    /** Respond to @p pkt upstream after @p cycles. */
    void scheduleResp(Cycles cycles, PacketPtr pkt);

    CacheParams params_;
    unsigned numSets_;

    /** Way-grouped packed tags: entry for (set, way) lives at
     *  set * assoc + way. */
    std::vector<TagWord> tags_;
    /** LRU stamps, parallel to tags_ (kept out of the scan array). */
    std::vector<std::uint64_t> lastUsed_;
    std::uint64_t lruCounter_ = 0;

    /** @{ MSHR slab + free list + O(1) line-address index. */
    std::vector<Mshr> mshrSlab_;
    std::uint16_t mshrFreeHead_ = invalidMshr;
    unsigned mshrInUse_ = 0;
    AddrTable<std::uint16_t> mshrIndex_;
    /** @} */

    PacketQueue deferred_; ///< requests waiting for an MSHR
    std::size_t deferredCount_ = 0;

    CpuSidePort cpuPort_;
    MemSidePort memPort_;

    sim::stats::Scalar hits_;
    sim::stats::Scalar misses_;
    sim::stats::Scalar mshrHits_;
    sim::stats::Scalar mshrBlocked_;
    sim::stats::Scalar writebacks_;
    sim::stats::Scalar invalidations_;
    sim::stats::Scalar upgradeMisses_;
    sim::stats::Formula missRate_;

    /** @{ Plain counters (not stat lines: keeps single-core stat
     *  text identical) — coherence races, for the tester. */
    std::uint64_t upgradeRaces_ = 0;
    std::uint64_t fillRaces_ = 0;
    /** @} */
};

} // namespace g5p::mem

#endif // G5P_MEM_CACHE_HH
