/**
 * @file
 * Multi-threaded SPLASH-2x stand-in kernels built on the guest
 * threading shim (os/threads.hh): radix_threads (per-thread
 * histogram + barrier + reduction, after SPLASH radix's local-count
 * phase) and lu_threads (row-cyclic blocked elimination with a
 * barrier per pivot, after SPLASH lu_ncb).
 *
 * Unlike the partition/done-flag kernels in splash.cc, these spawn
 * real guest threads: CPU 0 spawns one worker per remaining CPU,
 * everyone meets at generation-counted barriers, and the wakeup/
 * shutdown mailboxes plus the false-shared histogram rows drive the
 * MESI protocol through genuine S->M upgrades and invalidations.
 * Both checksums are interleaving-independent by construction, so
 * expectedResult verifies every CPU model and core count.
 */

#include "workloads/workload.hh"

#include <algorithm>
#include <bit>

#include "base/addr_utils.hh"
#include "base/logging.hh"
#include "os/threads.hh"

namespace g5p::workloads
{

using namespace isa;
using os::ThreadRuntime;

namespace
{

std::uint64_t
bitsOf(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

/** Spawn workers 1..T-1 running @p worker, run it inline as thread
 *  0, then join all workers. */
void
emitForkJoin(isa::Assembler &as, unsigned num_cpus,
             const std::string &worker)
{
    for (unsigned t = 1; t < num_cpus; ++t) {
        as.la(RegA0, worker);
        as.li(RegA1, (std::int64_t)t);
        as.li(RegA7, (std::int64_t)os::ThreadCall::Spawn);
        as.ecall();
    }
    as.li(RegA0, 0);
    as.call(worker);
    for (unsigned t = 1; t < num_cpus; ++t) {
        const std::string spin = "join" + std::to_string(t);
        as.label(spin);
        as.li(RegA0, (std::int64_t)t);
        as.li(RegA7, (std::int64_t)os::ThreadCall::Join);
        as.ecall();
        as.bne(RegA0, RegZero, spin);
    }
}

// ---------------------------------------------------------------
// radix_threads: SPLASH radix's local-count phase. Each thread
// histograms its slice of the key array into a private 16-bucket
// table; the tables are packed 128 bytes apart so neighbouring
// threads false-share tag lines. One barrier, then thread 0 reduces.
// The tables sit past the keys: 1 MiB into the data segment, or at
// the first page after the keys once they outgrow that (scale > 32).
// ---------------------------------------------------------------

class RadixThreads : public WorkloadBase
{
  public:
    explicit RadixThreads(double scale) : WorkloadBase(scale) {}

    std::string name() const override { return "radix_threads"; }

    std::uint64_t numKeys() const { return scaled(4096); }

    Addr
    histBase() const
    {
        return dataBase + std::max<Addr>(0x100000,
                                         alignUp(numKeys() * 8, 0x1000));
    }

    static constexpr unsigned buckets = 16;

    void
    emit(isa::Assembler &as, unsigned num_cpus,
         os::SimMode mode) const override
    {
        const std::int64_t n = (std::int64_t)numKeys();
        const std::int64_t chunk = n / num_cpus;

        as.label("_start");
        ThreadRuntime::emitThreadEntry(as);
        emitForkJoin(as, num_cpus, "rt_worker");

        // Reduce: checksum = sum_b (sum_t lhist[t][b]) * (b + 1).
        as.li(RegS1, 0);
        as.li(19, 0);                       // b
        as.label("rt_red_b");
        as.li(20, 0);                       // bucket total
        as.li(21, 0);                       // t
        as.label("rt_red_t");
        as.slli(RegT0, 21, 7);
        as.slli(RegT1, 19, 3);
        as.add(RegT0, RegT0, RegT1);
        as.li(RegT1, (std::int64_t)histBase());
        as.add(RegT0, RegT0, RegT1);
        as.ld(RegT1, RegT0, 0);
        as.add(20, 20, RegT1);
        as.addi(21, 21, 1);
        as.li(RegT0, (std::int64_t)num_cpus);
        as.blt(21, RegT0, "rt_red_t");
        as.addi(RegT0, 19, 1);
        as.mul(RegT1, 20, RegT0);
        as.add(RegS1, RegS1, RegT1);
        as.addi(19, 19, 1);
        as.li(RegT0, (std::int64_t)buckets);
        as.blt(19, RegT0, "rt_red_b");

        as.li(RegT0, (std::int64_t)resultAddr);
        as.sd(RegS1, RegT0, 0);
        ThreadRuntime::emitShutdown(as, num_cpus);
        as.halt();

        // Worker (a0 = thread index): count one slice.
        as.label("rt_worker");
        as.mv(19, RegA0);                   // t
        as.li(RegT0, chunk);
        as.mul(20, 19, RegT0);              // start
        as.add(21, 20, RegT0);              // end
        as.li(RegT1, (std::int64_t)num_cpus - 1);
        as.bne(19, RegT1, "rt_w_endok");
        as.li(21, n);                       // last takes the tail
        as.label("rt_w_endok");
        as.li(RegT0, (std::int64_t)dataBase);
        as.slli(RegT1, 20, 3);
        as.add(22, RegT0, RegT1);           // key pointer
        as.li(RegT0, (std::int64_t)histBase());
        as.slli(RegT1, 19, 7);
        as.add(23, RegT0, RegT1);           // private histogram
        as.bge(20, 21, "rt_w_done");
        as.label("rt_w_loop");
        as.ld(RegT0, 22, 0);
        as.andi(RegT0, RegT0, buckets - 1);
        as.slli(RegT0, RegT0, 3);
        as.add(RegT0, RegT0, 23);
        as.ld(RegT1, RegT0, 0);
        as.addi(RegT1, RegT1, 1);
        as.sd(RegT1, RegT0, 0);
        as.addi(22, 22, 8);
        as.addi(20, 20, 1);
        as.blt(20, 21, "rt_w_loop");
        as.label("rt_w_done");
        ThreadRuntime::emitBarrier(as, 0, num_cpus, "rt_w");
        as.ret();

        ThreadRuntime::emitWorkerLoop(as);
    }

    void
    initMemory(mem::PhysicalMemory &physmem) const override
    {
        Rng rng(Rng::hashString("radix_threads"));
        for (std::uint64_t i = 0; i < numKeys(); ++i)
            physmem.write(dataBase + i * 8, 8, rng.next());
    }

    std::uint64_t
    expectedResult(unsigned num_cpus) const override
    {
        Rng rng(Rng::hashString("radix_threads"));
        std::uint64_t hist[buckets] = {};
        for (std::uint64_t i = 0; i < numKeys(); ++i)
            hist[rng.next() & (buckets - 1)] += 1;
        std::uint64_t sum = 0;
        for (unsigned b = 0; b < buckets; ++b)
            sum += hist[b] * (b + 1);
        return sum;
    }
};

RegisterWorkload regRadixThreads("radix_threads", [](double s) {
    return std::make_unique<RadixThreads>(s);
});

// ---------------------------------------------------------------
// lu_threads: dense LU elimination without pivoting on a diagonally
// dominant matrix; rows are dealt to threads cyclically (i % T) and
// every pivot step ends at a barrier, so the pivot row's lines
// migrate M -> S -> invalidated each iteration. The per-element
// update order is fixed regardless of interleaving, so the diagonal
// checksum is exact.
// ---------------------------------------------------------------

class LuThreads : public WorkloadBase
{
  public:
    explicit LuThreads(double scale) : WorkloadBase(scale) {}

    std::string name() const override { return "lu_threads"; }

    std::uint64_t dim() const
    {
        std::uint64_t n = scaled(16);
        return n < 2 ? 2 : n;
    }

    void
    emit(isa::Assembler &as, unsigned num_cpus,
         os::SimMode mode) const override
    {
        const std::int64_t n = (std::int64_t)dim();

        as.label("_start");
        ThreadRuntime::emitThreadEntry(as);
        emitForkJoin(as, num_cpus, "lt_worker");

        // checksum = integer sum of the diagonal's raw FP bits.
        as.li(RegS1, 0);
        as.li(19, 0);                       // i
        as.label("lt_sum");
        as.li(RegT0, n * 8);
        as.mul(RegT1, 19, RegT0);
        as.slli(RegT2, 19, 3);
        as.add(RegT1, RegT1, RegT2);
        as.li(RegT2, (std::int64_t)dataBase);
        as.add(RegT1, RegT1, RegT2);
        as.ld(RegT2, RegT1, 0);
        as.add(RegS1, RegS1, RegT2);
        as.addi(19, 19, 1);
        as.li(RegT0, n);
        as.blt(19, RegT0, "lt_sum");

        as.li(RegT0, (std::int64_t)resultAddr);
        as.sd(RegS1, RegT0, 0);
        ThreadRuntime::emitShutdown(as, num_cpus);
        as.halt();

        // Worker (a0 = thread index): eliminate rows i % T == t.
        as.label("lt_worker");
        as.mv(21, RegA0);                   // t
        as.li(19, 0);                       // k
        as.label("lt_k");
        as.addi(20, 19, 1);                 // i
        as.label("lt_i");
        as.li(RegT0, n);
        as.bge(20, RegT0, "lt_i_done");
        as.li(RegT0, (std::int64_t)num_cpus);
        as.rem(RegT1, 20, RegT0);
        as.bne(RegT1, 21, "lt_i_next");
        as.li(RegT0, n * 8);                // row stride (live in j loop)
        as.mul(RegT1, 20, RegT0);
        as.li(RegT2, (std::int64_t)dataBase);
        as.add(RegT1, RegT1, RegT2);        // &a[i][0]
        as.mul(RegT3, 19, RegT0);
        as.add(RegT3, RegT3, RegT2);        // &a[k][0]
        as.slli(RegT4, 19, 3);              // k * 8
        as.add(RegT5, RegT1, RegT4);
        as.ld(RegT5, RegT5, 0);             // a[i][k]
        as.add(RegT6, RegT3, RegT4);
        as.ld(RegT6, RegT6, 0);             // a[k][k]
        as.fdiv(RegT5, RegT5, RegT6);       // f
        as.mv(RegT6, RegT4);                // j * 8
        as.label("lt_j");
        as.add(RegA1, RegT3, RegT6);
        as.ld(RegA2, RegA1, 0);             // a[k][j]
        as.fmul(RegA2, RegT5, RegA2);
        as.add(RegA1, RegT1, RegT6);
        as.ld(RegA3, RegA1, 0);
        as.fsub(RegA3, RegA3, RegA2);
        as.sd(RegA3, RegA1, 0);             // a[i][j] -= f * a[k][j]
        as.addi(RegT6, RegT6, 8);
        as.blt(RegT6, RegT0, "lt_j");
        as.label("lt_i_next");
        as.addi(20, 20, 1);
        as.j("lt_i");
        as.label("lt_i_done");
        ThreadRuntime::emitBarrier(as, 1, num_cpus, "lt_w");
        as.addi(19, 19, 1);
        as.li(RegT0, n - 1);
        as.blt(19, RegT0, "lt_k");
        as.ret();

        ThreadRuntime::emitWorkerLoop(as);
    }

    void
    initMemory(mem::PhysicalMemory &physmem) const override
    {
        const std::uint64_t n = dim();
        Rng rng(Rng::hashString("lu_threads"));
        for (std::uint64_t i = 0; i < n; ++i) {
            for (std::uint64_t j = 0; j < n; ++j) {
                double v = rng.uniform() + 0.1;
                if (i == j)
                    v += (double)n;
                physmem.write(dataBase + (i * n + j) * 8, 8,
                              bitsOf(v));
            }
        }
    }

    std::uint64_t
    expectedResult(unsigned num_cpus) const override
    {
        const std::uint64_t n = dim();
        Rng rng(Rng::hashString("lu_threads"));
        std::vector<double> a(n * n);
        for (std::uint64_t i = 0; i < n; ++i) {
            for (std::uint64_t j = 0; j < n; ++j) {
                double v = rng.uniform() + 0.1;
                if (i == j)
                    v += (double)n;
                a[i * n + j] = v;
            }
        }
        for (std::uint64_t k = 0; k + 1 < n; ++k) {
            for (std::uint64_t i = k + 1; i < n; ++i) {
                double f = a[i * n + k] / a[k * n + k];
                for (std::uint64_t j = k; j < n; ++j)
                    a[i * n + j] -= f * a[k * n + j];
            }
        }
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            sum += bitsOf(a[i * n + i]);
        return sum;
    }
};

RegisterWorkload regLuThreads("lu_threads", [](double s) {
    return std::make_unique<LuThreads>(s);
});

} // namespace

/** Anchor so the linker keeps this TU's static registrations. */
void
linkThreadWorkloads()
{
}

} // namespace g5p::workloads
