/**
 * @file
 * PipelinedSink: a HostInstSink stage that hands the synthesized
 * stream to a downstream sink running on its own worker thread, so
 * that synthesis (the producer) and host modeling (the consumer)
 * overlap instead of taking turns.
 *
 * Batches travel through a bounded ring of ringSlots slots of
 * slotOps instructions each. ops() copies a batch into a free slot
 * and returns; it waits only while every slot is full. The worker
 * consumes slots strictly in the order they were filled and hands
 * each to the downstream sink's ops(), so the downstream sees exactly
 * the op sequence the producer emitted, and a deterministic sink
 * (host::HostCore) ends in the same state as it would have fed
 * directly.
 *
 * Only the worker touches the downstream sink between construction
 * and drain(): the caller must call drain() before reading any
 * downstream state. drain() waits until the worker has consumed
 * every queued slot, then rethrows the exception the downstream sink
 * raised, if any. After such a failure the stage drops every further
 * batch. Neither ops() nor the destructor throws, so a Synthesizer
 * may flush into the stage while the stack unwinds.
 *
 * One producer thread calls ops(), op() and drain(). A side that
 * finds nothing to do yields for up to spinBudget before it blocks:
 * batches arrive every ~150 µs, and a worker that slept between
 * them would be woken onto the producer's CPU by the scheduler and
 * share it instead of running beside it.
 */

#ifndef G5P_TRACE_PIPELINED_SINK_HH
#define G5P_TRACE_PIPELINED_SINK_HH

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "trace/synthesizer.hh"

namespace g5p::trace
{

class PipelinedSink final : public HostInstSink
{
  public:
    /** Instructions per ring slot: one Synthesizer batch. */
    static constexpr std::size_t slotOps = Synthesizer::batchOps;

    /** Ring depth. Enough to ride out jitter on either side of the
     *  pipe while keeping the ring cache-sized. */
    static constexpr std::size_t ringSlots = 4;

    /** Starts the worker thread that feeds @p downstream. */
    explicit PipelinedSink(HostInstSink &downstream);

    /**
     * Lets the worker consume whatever is still queued, then joins
     * it. Never throws: a downstream failure nobody drained is lost.
     */
    ~PipelinedSink() override;

    PipelinedSink(const PipelinedSink &) = delete;
    PipelinedSink &operator=(const PipelinedSink &) = delete;

    /** HostInstSink: queue one instruction (a one-op batch). */
    void op(const HostOp &op) override { ops(&op, 1); }

    /**
     * HostInstSink: queue a copy of @p batch, split into slotOps
     * chunks if it is larger. Waits while the ring is full. Drops
     * the batch once the downstream sink has failed.
     */
    void ops(const HostOp *batch, std::size_t count) override;

    /**
     * Wait until the downstream sink has consumed every queued
     * batch, then rethrow the downstream failure, if any. Call
     * before reading downstream state.
     */
    void drain();

  private:
    /** How long a waiting side yields before it blocks. */
    static constexpr std::chrono::microseconds spinBudget{2000};

    /** Worker thread body: consume slots in order until stopped. */
    void work();

    /**
     * Wait on @p cv until @p ready(), holding @p lock whenever ready()
     * runs. Yields with the lock released for up to spinBudget before
     * it blocks.
     */
    template <typename Ready>
    void await(std::unique_lock<std::mutex> &lock,
               std::condition_variable &cv, Ready ready);

    HostInstSink &downstream_;

    /** ringSlots * slotOps instructions; slot i starts at i*slotOps.
     *  A filled slot belongs to the worker until it is consumed, a
     *  free one to the producer. */
    std::vector<HostOp> ring_;
    std::size_t counts_[ringSlots] = {};

    /** @{ Guarded by mutex_. */
    std::mutex mutex_;
    std::condition_variable slotFreed_;  ///< the producer waits here
    std::condition_variable slotFilled_; ///< the worker waits here
    std::size_t head_ = 0;   ///< oldest filled slot
    std::size_t filled_ = 0; ///< filled slots, the one in use included
    bool stop_ = false;
    std::exception_ptr error_;
    /** @} */

    std::thread worker_;
};

} // namespace g5p::trace

#endif // G5P_TRACE_PIPELINED_SINK_HH
