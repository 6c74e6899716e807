/**
 * @file
 * Tests for the host microarchitecture model: counting caches, mixed
 * page-size TLBs, branch predictor classes, DSB, uncore levels,
 * Top-Down accounting identities, and co-run transformations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "base/random.hh"

#include "host/corun.hh"
#include "host/host_core.hh"
#include "host/platforms.hh"
#include "host/tag_store.hh"

using namespace g5p;
using namespace g5p::host;
using trace::HostOp;

namespace
{

HostOp
aluOp(HostAddr pc)
{
    HostOp op;
    op.pc = pc;
    return op;
}

HostOp
loadOp(HostAddr pc, HostAddr addr)
{
    HostOp op;
    op.pc = pc;
    op.kind = HostOp::Kind::Load;
    op.dataAddr = addr;
    op.dataSize = 8;
    return op;
}

HostOp
branchOp(HostAddr pc, bool taken, HostAddr target)
{
    HostOp op;
    op.pc = pc;
    op.kind = HostOp::Kind::Branch;
    op.conditional = true;
    op.taken = taken;
    op.target = taken ? target : pc + 4;
    return op;
}

} // namespace

TEST(TagStore, MatchesLruOracle)
{
    // A per-set recency list (most recent first) is LRU by
    // definition. Drive random (set, tag) streams through both and
    // require the same hit or miss on every access. Half the tags are
    // small (tag 0 included, which an invalid way must not match);
    // the other half are as wide as a TLB key, page << 6 | bits, for
    // a 4 KiB page of a 64-bit address.
    struct Geometry
    {
        std::uint64_t sets;
        unsigned assoc;
    };
    for (Geometry g : {Geometry{64, 1}, Geometry{32, 4},
                       Geometry{16, 8}, Geometry{8, 16}}) {
        SCOPED_TRACE(std::to_string(g.sets) + " sets x " +
                     std::to_string(g.assoc) + " ways");
        TagStore store(g.sets, g.assoc, "oracle");
        std::vector<std::vector<std::uint64_t>> recency(g.sets);
        Rng rng(g.sets * 131 + g.assoc);

        std::vector<std::uint64_t> pool;
        for (unsigned i = 0; i < 3 * g.assoc; ++i) {
            pool.push_back(i);
            pool.push_back((rng.next() >> 12) << 6 | 12);
        }

        std::uint64_t hits = 0, misses = 0, valid = 0;
        for (int i = 0; i < 40000; ++i) {
            std::uint64_t set = rng.below(g.sets);
            std::uint64_t tag = pool[rng.below(pool.size())];
            std::vector<std::uint64_t> &lru = recency[set];
            auto it = std::find(lru.begin(), lru.end(), tag);
            bool hit = it != lru.end();
            if (hit) {
                lru.erase(it);
                ++hits;
            } else {
                ++misses;
                if (lru.size() == g.assoc)
                    lru.pop_back();
                else
                    ++valid;
            }
            lru.insert(lru.begin(), tag);
            ASSERT_EQ(store.access(set, tag), hit)
                << "access " << i << ", set " << set << ", tag "
                << tag;
        }
        EXPECT_EQ(store.hits(), hits);
        EXPECT_EQ(store.misses(), misses);
        EXPECT_EQ(store.validEntries(), valid);
        for (std::uint64_t set = 0; set < g.sets; ++set)
            for (std::uint64_t tag : pool)
                EXPECT_EQ(store.contains(set, tag),
                          std::count(recency[set].begin(),
                                     recency[set].end(), tag) == 1);
    }
}

TEST(HostCache, HitMissAndOccupancy)
{
    HostCache cache({1024, 2, 64}); // 8 sets
    EXPECT_FALSE(cache.access(0x0));
    EXPECT_TRUE(cache.access(0x8)); // same line
    EXPECT_EQ(cache.validLines(), 1u);
    EXPECT_EQ(cache.occupancyBytes(), 64u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(HostCache, LruWithinSet)
{
    HostCache cache({1024, 2, 64}); // 8 sets; set stride 512B
    cache.access(0x0000);
    cache.access(0x0200);
    cache.access(0x0000); // refresh
    cache.access(0x0400); // evicts 0x0200
    EXPECT_TRUE(cache.contains(0x0000));
    EXPECT_FALSE(cache.contains(0x0200));
    EXPECT_TRUE(cache.contains(0x0400));
    EXPECT_EQ(cache.validLines(), 2u);
}

/** Capacity property: a working set larger than the cache thrashes. */
class HostCacheCapacity
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(HostCacheCapacity, WorkingSetVsCapacity)
{
    std::uint64_t cache_kb = GetParam();
    HostCache cache({cache_kb * 1024, 8, 64});

    // Stream a 64KB working set twice; the second pass hit rate
    // reflects whether it fits.
    auto pass = [&] {
        for (HostAddr a = 0; a < 64 * 1024; a += 64)
            cache.access(a);
    };
    pass();
    std::uint64_t before = cache.hits();
    pass();
    double second_pass_hits = (double)(cache.hits() - before) / 1024;
    if (cache_kb >= 64)
        EXPECT_GT(second_pass_hits, 0.99);
    else
        EXPECT_LT(second_pass_hits, 0.01); // LRU streaming thrash
}

INSTANTIATE_TEST_SUITE_P(Sizes, HostCacheCapacity,
                         ::testing::Values(8u, 16u, 32u, 128u));

TEST(HostCache, LineSizeChangesMissCount)
{
    // The M1's 128B lines halve compulsory misses on a stream — one
    // of the paper's Fig. 8 mechanisms.
    HostCache small({32 * 1024, 8, 64});
    HostCache large({32 * 1024, 8, 128});
    for (HostAddr a = 0; a < 16 * 1024; a += 8) {
        small.access(a);
        large.access(a);
    }
    EXPECT_NEAR((double)small.misses() / large.misses(), 2.0, 0.1);
}

TEST(PageSizePolicy, HugeRegionsIncreaseReach)
{
    PageSizePolicy policy(12);
    policy.addHugeRegion(0x40'0000, 0x100'0000, 1.0);
    EXPECT_EQ(policy.pageBits(0x1000), 12u);
    EXPECT_EQ(policy.pageBits(0x50'0000), 21u);
    EXPECT_EQ(policy.pageBits(0x200'0000), 12u);
}

TEST(PageSizePolicy, PartialCoverageIsChunkGranular)
{
    PageSizePolicy policy(12);
    policy.addHugeRegion(0, 1ull << 32, 0.5);
    unsigned huge = 0, base = 0;
    for (HostAddr chunk = 0; chunk < 200; ++chunk) {
        unsigned bits = policy.pageBits(chunk << 21);
        // Every address inside one 2MB chunk agrees.
        EXPECT_EQ(policy.pageBits((chunk << 21) + 0x12345), bits);
        (bits == 21 ? huge : base) += 1;
    }
    EXPECT_GT(huge, 70u);
    EXPECT_GT(base, 70u);
}

TEST(HostTlb, HugePagesReduceMisses)
{
    PageSizePolicy base_policy(12);
    PageSizePolicy huge_policy(12);
    huge_policy.addHugeRegion(0, 1ull << 30, 1.0);

    HostTlb base_tlb({64, 4}, &base_policy);
    HostTlb huge_tlb({64, 4}, &huge_policy);

    // Walk 4MB of code twice: 1024 base pages vs 2 huge pages.
    for (int pass = 0; pass < 2; ++pass) {
        for (HostAddr a = 0; a < (4u << 20); a += 256) {
            base_tlb.access(a);
            huge_tlb.access(a);
        }
    }
    EXPECT_GT(base_tlb.misses(), 100 * huge_tlb.misses());
}

TEST(HostTlb, LargerPageSizeIncreasesReach)
{
    // The M1's 16KB pages quadruple TLB reach (Fig. 8).
    PageSizePolicy p4k(12), p16k(14);
    HostTlb t4k({64, 4}, &p4k);
    HostTlb t16k({64, 4}, &p16k);
    for (int pass = 0; pass < 3; ++pass) {
        for (HostAddr a = 0; a < (1u << 20); a += 512) {
            t4k.access(a);
            t16k.access(a);
        }
    }
    EXPECT_GT(t4k.missRate(), 2 * t16k.missRate());
}

TEST(HostTlb, PageSizeClassesDoNotAlias)
{
    // 4KB page N and 2MB page N share a page number, hence a set;
    // only the size class in the tag keeps them apart.
    constexpr HostAddr page = 0x400;
    const HostAddr base_addr = page << 12;
    const HostAddr huge_addr = page << 21;
    PageSizePolicy policy(12);
    policy.addHugeRegion(huge_addr, huge_addr + (1u << 21), 1.0);
    ASSERT_EQ(policy.pageBits(base_addr), 12u);
    ASSERT_EQ(policy.pageBits(huge_addr), 21u);

    HostTlb tlb({64, 4}, &policy);
    EXPECT_FALSE(tlb.access(base_addr));
    EXPECT_FALSE(tlb.access(huge_addr));
    EXPECT_TRUE(tlb.access(base_addr));
    EXPECT_TRUE(tlb.access(huge_addr));
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(BranchPredictor, LearnsBiasedSites)
{
    HostBranchPredictor bp({14, 1024, 16, 256});
    HostOp br = branchOp(0x1000, true, 0x1040);
    unsigned resolved = 0, mispredicts = 0;
    for (int i = 0; i < 100; ++i) {
        mispredicts += bp.resolve(br).mispredicted;
        ++resolved;
    }
    // After warmup the site predicts perfectly.
    EXPECT_LT(mispredicts, 4u);
    EXPECT_EQ(resolved, 100u);
}

TEST(BranchPredictor, UnbiasedSiteMispredicts)
{
    HostBranchPredictor bp({14, 1024, 16, 256});
    Rng rng(9);
    unsigned mispredicts = 0;
    for (int i = 0; i < 2000; ++i) {
        HostOp br = branchOp(0x2000, rng.chance(0.5), 0x2080);
        mispredicts += bp.resolve(br).mispredicted;
    }
    EXPECT_GT(mispredicts, 600u); // ~50% is unlearnable
}

TEST(BranchPredictor, RasPredictsReturns)
{
    HostBranchPredictor bp({14, 1024, 16, 256});
    // call at 0x3000 -> ret to 0x3005.
    HostOp call;
    call.pc = 0x3000;
    call.lenBytes = 5;
    call.kind = HostOp::Kind::Branch;
    call.taken = true;
    call.isCall = true;
    call.target = 0x9000;

    HostOp ret;
    ret.pc = 0x9040;
    ret.kind = HostOp::Kind::Branch;
    ret.taken = true;
    ret.indirect = true;
    ret.isReturn = true;
    ret.target = 0x3005;

    for (int i = 0; i < 50; ++i) {
        bp.resolve(call);
        auto res = bp.resolve(ret);
        EXPECT_FALSE(res.mispredicted) << "iteration " << i;
    }
}

TEST(BranchPredictor, PolymorphicIndirectThrashes)
{
    HostBranchPredictor bp({14, 1024, 16, 256});
    HostOp ind;
    ind.pc = 0x4000;
    ind.kind = HostOp::Kind::Branch;
    ind.taken = true;
    ind.indirect = true;

    // Monomorphic site: learns after one miss.
    ind.target = 0xa000;
    bp.resolve(ind);
    unsigned mono_misses = 0;
    for (int i = 0; i < 20; ++i)
        mono_misses += bp.resolve(ind).mispredicted;
    EXPECT_EQ(mono_misses, 0u);

    // Alternating targets: every call mispredicts.
    unsigned poly_misses = 0;
    for (int i = 0; i < 20; ++i) {
        ind.target = i % 2 ? 0xb000 : 0xc000;
        poly_misses += bp.resolve(ind).mispredicted;
    }
    EXPECT_GE(poly_misses, 19u);
}

TEST(BranchPredictor, UnknownBranchAfterBtbEviction)
{
    HostBranchPredictor bp({14, 1024, 16, 256});
    // Two always-taken sites that alias in the 1024-entry BTB
    // (index = (pc >> 1) % 1024, so a 2KB stride collides) but use
    // different direction counters.
    HostOp a = branchOp(0x10000, true, 0x20000);
    HostOp b = branchOp(0x10000 + 2048, true, 0x30000);

    bp.resolve(a);
    bp.resolve(a); // direction trained, BTB holds a
    bp.resolve(b);
    bp.resolve(b); // BTB now holds b (evicted a)

    auto res = bp.resolve(a);
    EXPECT_TRUE(res.unknownBranch)
        << "taken branch with evicted BTB target must resteer";
    EXPECT_FALSE(res.mispredicted);
}

TEST(Dsb, CapacityEviction)
{
    DsbModel dsb({64, 8, 0}); // 64 windows = 2KB, all eligible
    // An 8KB loop cannot live in a 2KB DSB.
    for (int pass = 0; pass < 3; ++pass)
        for (HostAddr a = 0; a < 8192; a += 32)
            dsb.access(a);
    double hit_rate =
        (double)dsb.hits() / (dsb.hits() + dsb.misses());
    EXPECT_LT(hit_rate, 0.05);

    DsbModel big({512, 8, 0}); // 16KB: fits
    for (int pass = 0; pass < 3; ++pass)
        for (HostAddr a = 0; a < 8192; a += 32)
            big.access(a);
    double big_rate =
        (double)big.hits() / (big.hits() + big.misses());
    EXPECT_GT(big_rate, 0.6);
}

TEST(Dsb, DisabledAlwaysMisses)
{
    DsbModel dsb({0, 1, 0});
    EXPECT_FALSE(dsb.enabled());
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(dsb.access(0x1000));
    EXPECT_EQ(dsb.hits(), 0u);
}

TEST(Dsb, IneligibleWindowsNeverCache)
{
    DsbModel dsb({512, 8, 100}); // everything ineligible
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(dsb.access(0x40'0000));
}

TEST(Uncore, LevelsAndDramBytes)
{
    HostPlatformConfig cfg = xeonConfig();
    cfg.l2 = {64 * 1024, 8, 64};
    cfg.llc = {1024 * 1024, 16, 64};
    Uncore uncore(cfg);

    auto first = uncore.access(0x123456);
    EXPECT_EQ(first.level, Uncore::Level::Memory);
    EXPECT_EQ(uncore.dramBytes(), 64u);

    auto second = uncore.access(0x123456);
    EXPECT_EQ(second.level, Uncore::Level::L2);
    EXPECT_LT(second.latencyCycles, first.latencyCycles);
    EXPECT_EQ(uncore.dramBytes(), 64u);
}

TEST(Uncore, LlcCatchesL2Victims)
{
    HostPlatformConfig cfg = xeonConfig();
    cfg.l2 = {4 * 1024, 4, 64};      // tiny L2
    cfg.llc = {1024 * 1024, 16, 64}; // roomy LLC
    Uncore uncore(cfg);

    for (HostAddr a = 0; a < 64 * 1024; a += 64)
        uncore.access(a);
    // Second pass: everything overflowed L2 but lives in LLC.
    auto res = uncore.access(0x0);
    EXPECT_EQ(res.level, Uncore::Level::Llc);
    EXPECT_GT(uncore.llcOccupancyBytes(), 32u * 1024);
}

TEST(Uncore, NoLlcGoesStraightToMemory)
{
    HostPlatformConfig cfg = firesimConfig();
    cfg.l2 = {4 * 1024, 4, 64};
    Uncore uncore(cfg);
    for (HostAddr a = 0; a < 64 * 1024; a += 64)
        uncore.access(a);
    auto res = uncore.access(0x0);
    EXPECT_EQ(res.level, Uncore::Level::Memory);
}

TEST(Topdown, SlotsSumToOne)
{
    // Drive a mixed stream; the Top-Down buckets must cover every
    // slot exactly (the accounting identity).
    HostPlatformConfig cfg = xeonConfig();
    PageSizePolicy policy(cfg.pageBits);
    HostCore core(cfg, policy);

    Rng rng(31);
    HostAddr pc = 0x40'0000;
    for (int i = 0; i < 200000; ++i) {
        if (rng.chance(0.2)) {
            bool taken = rng.chance(0.4);
            HostAddr target = 0x40'0000 + rng.below(1 << 20);
            core.op(branchOp(pc, taken, target));
            pc = taken ? target : pc + 4;
        } else if (rng.chance(0.3)) {
            core.op(loadOp(pc, 0x2000'0000 + rng.below(1 << 22)));
            pc += 4;
        } else {
            core.op(aluOp(pc));
            pc += 4;
        }
    }

    TopdownBreakdown td = core.topdown();
    EXPECT_NEAR(td.total(), 1.0, 1e-9);
    EXPECT_NEAR(td.frontendLatency,
                td.feIcache + td.feItlb + td.feMispredictResteers +
                    td.feUnknownBranches + td.feClearResteers,
                1e-12);
    EXPECT_NEAR(td.backendBound, td.beMemory + td.beCore, 1e-12);
    EXPECT_GT(td.retiring, 0.0);
    EXPECT_GT(core.counters().ipc(), 0.0);
    EXPECT_LE(core.counters().ipc(), cfg.dispatchWidth);
}

TEST(Platforms, TableIIGeometry)
{
    auto xeon = xeonConfig();
    auto pro = m1ProConfig();
    auto ultra = m1UltraConfig();

    EXPECT_EQ(xeon.lineBytes, 64u);
    EXPECT_EQ(pro.lineBytes, 128u);
    EXPECT_EQ(xeon.pageBits, 12u);
    EXPECT_EQ(pro.pageBits, 14u);
    EXPECT_EQ(pro.icache.sizeBytes, 192u * 1024);
    EXPECT_EQ(pro.dcache.sizeBytes, 128u * 1024);
    EXPECT_EQ(xeon.icache.sizeBytes, 32u * 1024);
    EXPECT_EQ(pro.hwThreads, pro.physicalCores); // no SMT
    EXPECT_GT(xeon.hwThreads, xeon.physicalCores);
    EXPECT_EQ(xeon.hwThreads, 40u);
    EXPECT_EQ(ultra.physicalCores, 16u);
    EXPECT_GT(ultra.llc.sizeBytes, pro.llc.sizeBytes);

    // Derived quantities.
    EXPECT_NEAR(xeon.effectiveHz(), 3.1e9, 1e6);
    EXPECT_NEAR(xeon.effectiveHz(true), 4.1e9, 1e6);
    EXPECT_NEAR(xeon.memLatencyCycles(), 96 * 3.1, 0.5);
}

TEST(Platforms, AllPlatformsInstantiate)
{
    // Every published config must have legal cache/TLB geometry
    // end to end (this guards the power-of-two constraints).
    for (const auto &cfg : tableIIPlatforms()) {
        PageSizePolicy policy(cfg.pageBits);
        HostCore core(cfg, policy);
        core.op(trace::HostOp{});
        EXPECT_GT(core.counters().insts, 0u) << cfg.name;
    }
    auto fs = firesimConfig();
    PageSizePolicy policy(fs.pageBits);
    HostCore core(fs, policy);
    core.op(trace::HostOp{});
}

TEST(Platforms, DefaultConfigBuildsHostCore)
{
    // core::RunConfig::platform starts out default-constructed, so
    // the default geometry must be buildable too.
    HostPlatformConfig cfg;
    PageSizePolicy policy(cfg.pageBits);
    HostCore core(cfg, policy);
    core.op(trace::HostOp{});
    EXPECT_EQ(core.counters().insts, 1u);
}

TEST(Platforms, FiresimCacheConfigKeeps64Sets)
{
    auto cfg = firesimCacheConfig(16, 4, 16, 4, 1024, 8);
    EXPECT_EQ(cfg.icache.numSets(), 64u);
    EXPECT_EQ(cfg.icache.sizeBytes, 16u * 1024);
    EXPECT_EQ(cfg.l2.sizeBytes, 1024u * 1024);
    EXPECT_EQ(cfg.llc.sizeBytes, 0u); // no L3
}

#ifdef GTEST_HAS_DEATH_TEST
TEST(PlatformsDeath, BadViptConfigPanics)
{
    // 16KB 2-way would be 128 sets, violating the VIPT constraint.
    EXPECT_DEATH(firesimCacheConfig(16, 2, 16, 4, 512, 8),
                 "64 sets");
}
#endif

TEST(Corun, ScenariosMatchTopology)
{
    auto xeon = xeonConfig();
    EXPECT_EQ(perPhysicalCore(xeon).processes, 20u);
    EXPECT_FALSE(perPhysicalCore(xeon).smt);
    EXPECT_EQ(perHardwareThread(xeon).processes, 40u);
    EXPECT_TRUE(perHardwareThread(xeon).smt);

    auto pro = m1ProConfig();
    EXPECT_EQ(perHardwareThread(pro).processes, 4u);
    EXPECT_FALSE(perHardwareThread(pro).smt); // no SMT on M1
}

TEST(Corun, SharedCachesArePartitioned)
{
    auto xeon = xeonConfig();
    auto shared = applyCorun(xeon, perPhysicalCore(xeon));
    // L2 is private per core: untouched. LLC divided among 20.
    EXPECT_EQ(shared.l2.sizeBytes, xeon.l2.sizeBytes);
    EXPECT_LT(shared.llc.sizeBytes, xeon.llc.sizeBytes / 10);
    // Private L1s untouched without SMT.
    EXPECT_EQ(shared.icache.sizeBytes, xeon.icache.sizeBytes);
}

TEST(Corun, SmtHalvesCorePrivateResources)
{
    auto xeon = xeonConfig();
    auto smt = applyCorun(xeon, perHardwareThread(xeon));
    EXPECT_EQ(smt.icache.sizeBytes, xeon.icache.sizeBytes / 2);
    EXPECT_EQ(smt.dcache.sizeBytes, xeon.dcache.sizeBytes / 2);
    EXPECT_EQ(smt.l2.sizeBytes, xeon.l2.sizeBytes / 2);
    EXPECT_LT(smt.miteUopsPerCycle, xeon.miteUopsPerCycle);
    EXPECT_EQ(smt.dsb.windows, xeon.dsb.windows / 2);
}

TEST(Corun, SingleProcessIsIdentity)
{
    auto xeon = xeonConfig();
    auto same = applyCorun(xeon, singleProcess());
    EXPECT_EQ(same.llc.sizeBytes, xeon.llc.sizeBytes);
    EXPECT_EQ(same.name, xeon.name);
}
