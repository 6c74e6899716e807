/**
 * @file
 * HostCore: the complete host-CPU model. Consumes the synthesized
 * instruction stream (it is a HostInstSink), integrates the front-end
 * and back-end models over the uncore they share, and produces the
 * HostCounters / Top-Down breakdown the paper's figures are built
 * from. One HostCore models one hardware context running one gem5
 * process, exactly the paper's measurement unit.
 */

#ifndef G5P_HOST_HOST_CORE_HH
#define G5P_HOST_HOST_CORE_HH

#include <array>

#include "host/backend.hh"
#include "host/frontend.hh"

namespace g5p::host
{

class HostCore : public trace::HostInstSink
{
  public:
    /**
     * @param config the platform (possibly co-run adjusted)
     * @param policy page-size policy; the caller configures huge-page
     *        regions before the run
     */
    HostCore(const HostPlatformConfig &config,
             const PageSizePolicy &policy);

    /** The models hold references to config_ and uncore_. */
    HostCore(const HostCore &) = delete;
    HostCore &operator=(const HostCore &) = delete;

    /** HostInstSink: account one instruction (a one-op batch). */
    void op(const trace::HostOp &op) override { ops(&op, 1); }

    /**
     * HostInstSink: account a batch, one op after another. Results
     * depend only on the op sequence, never on where it is split
     * into batches.
     */
    void ops(const trace::HostOp *batch, std::size_t count) override;

    /** Finalized counters (uncore fields folded in). */
    HostCounters counters() const;

    /** Top-Down breakdown at this platform's width. */
    TopdownBreakdown topdown() const;

    /** Cycles so far. */
    double cycles() const { return counters_.totalCycles(); }

    /** Wall-clock seconds at the platform frequency. */
    double
    seconds(bool turbo = false) const
    {
        return cycles() / config_.effectiveHz(turbo);
    }

  private:
    HostPlatformConfig config_;
    Uncore uncore_;
    FrontendModel frontend_;
    BackendModel backend_;
    HostCounters counters_;

    /**
     * baseCycles charged per op, indexed by its µop count. Each entry
     * is exactly `(double)uops / (double)dispatchWidth` — the value
     * the per-op code used to divide out on every instruction — so
     * the accumulated cycles are bit-identical with one FP division
     * per core instead of one per op.
     */
    std::array<double, 256> uopCycles_;
};

} // namespace g5p::host

#endif // G5P_HOST_HOST_CORE_HH
