#include "trace/pipelined_sink.hh"

#include <algorithm>

namespace g5p::trace
{

PipelinedSink::PipelinedSink(HostInstSink &downstream)
    : downstream_(downstream), ring_(ringSlots * slotOps)
{
    worker_ = std::thread([this] { work(); });
}

PipelinedSink::~PipelinedSink()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    slotFilled_.notify_one();
    worker_.join();
}

template <typename Ready>
void
PipelinedSink::await(std::unique_lock<std::mutex> &lock,
                     std::condition_variable &cv, Ready ready)
{
    auto deadline = std::chrono::steady_clock::now() + spinBudget;
    while (!ready()) {
        if (std::chrono::steady_clock::now() > deadline) {
            cv.wait(lock, ready);
            return;
        }
        lock.unlock();
        std::this_thread::yield();
        lock.lock();
    }
}

void
PipelinedSink::ops(const HostOp *batch, std::size_t count)
{
    while (count > 0) {
        std::size_t slot;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            await(lock, slotFreed_,
                  [this] { return filled_ < ringSlots; });
            if (error_)
                return;
            slot = (head_ + filled_) % ringSlots;
        }
        // The slot is outside [head_, head_ + filled_), so the worker
        // does not read it until it is published below.
        std::size_t n = std::min(count, slotOps);
        std::copy(batch, batch + n, ring_.data() + slot * slotOps);
        counts_[slot] = n;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++filled_;
        }
        slotFilled_.notify_one();
        batch += n;
        count -= n;
    }
}

void
PipelinedSink::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    await(lock, slotFreed_, [this] { return filled_ == 0; });
    if (error_)
        std::rethrow_exception(error_);
}

void
PipelinedSink::work()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        await(lock, slotFilled_,
              [this] { return filled_ > 0 || stop_; });
        if (filled_ == 0)
            return;
        std::size_t slot = head_;
        bool failed = error_ != nullptr;
        lock.unlock();

        std::exception_ptr error;
        if (!failed) {
            try {
                downstream_.ops(ring_.data() + slot * slotOps,
                                counts_[slot]);
            } catch (...) {
                error = std::current_exception();
            }
        }

        lock.lock();
        if (error)
            error_ = error;
        head_ = (head_ + 1) % ringSlots;
        --filled_;
        slotFreed_.notify_one();
    }
}

} // namespace g5p::trace
