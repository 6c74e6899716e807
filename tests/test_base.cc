/**
 * @file
 * Unit tests for the base utilities: PRNG, string helpers, address
 * arithmetic, lazily zeroed mappings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "base/addr_utils.hh"
#include "base/anon_mapping.hh"
#include "base/random.hh"
#include "base/str.hh"
#include "residency.hh"

using namespace g5p;

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowOneIsZero)
{
    Rng rng(7);
    EXPECT_EQ(rng.below(1), 0u);
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all four values reachable
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(5);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, GeometricMeanRoughlyRight)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += (double)rng.geometric(10.0);
    EXPECT_NEAR(sum / 20000, 10.0, 1.0);
}

TEST(Rng, HashStringStableAndDistinct)
{
    EXPECT_EQ(Rng::hashString("abc"), Rng::hashString("abc"));
    EXPECT_NE(Rng::hashString("abc"), Rng::hashString("abd"));
    EXPECT_NE(Rng::hashString(""), Rng::hashString("a"));
}

TEST(Str, Split)
{
    auto parts = split("a.b..c", '.');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
    EXPECT_TRUE(split("", '.').empty());
}

TEST(Str, FmtPercent)
{
    EXPECT_EQ(fmtPercent(0.415), "41.5%");
    EXPECT_EQ(fmtPercent(1.0, 0), "100%");
}

TEST(Str, FmtBytes)
{
    EXPECT_EQ(fmtBytes(512), "512B");
    EXPECT_EQ(fmtBytes(8 * 1024), "8KB");
    EXPECT_EQ(fmtBytes(3 * 1024 * 1024), "3MB");
    EXPECT_EQ(fmtBytes(3250585), "3.1MB");
}

TEST(Str, Padding)
{
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("abcde", 4), "abcde");
}

TEST(AddrUtils, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
}

TEST(AddrUtils, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

TEST(AddrUtils, Alignment)
{
    EXPECT_EQ(alignDown(0x1234, 0x100), 0x1200u);
    EXPECT_EQ(alignUp(0x1234, 0x100), 0x1300u);
    EXPECT_EQ(alignUp(0x1200, 0x100), 0x1200u);
}

/** Property sweep: set index and tag reconstruct the line address. */
class CacheIndexing
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(CacheIndexing, TagSetRoundTrip)
{
    auto [line_bytes, num_sets] = GetParam();
    Rng rng(13);
    for (int i = 0; i < 200; ++i) {
        Addr a = rng.next() & 0xffff'ffff'ffffULL;
        auto set = cacheSetIndex(a, line_bytes, num_sets);
        auto tag = cacheTag(a, line_bytes, num_sets);
        Addr line = a / line_bytes;
        EXPECT_EQ((tag << floorLog2(num_sets)) | set, line);
        EXPECT_LT(set, num_sets);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheIndexing,
    ::testing::Combine(::testing::Values(32u, 64u, 128u),
                       ::testing::Values(16u, 64u, 512u, 4096u)));

TEST(AnonMapping, ZeroAndNonResidentUntilTouched)
{
    // 8 MiB: the size of the Xeon model's LLC tag block.
    const std::size_t page = test::hostPageBytes();
    const std::size_t pages = (8u << 20) / page;

    base::AnonMapping zeros(pages * page);
    EXPECT_EQ(zeros.size(), pages * page);
    EXPECT_EQ(test::residentPages(zeros.data(), zeros.size()), 0u);
    const std::uint8_t *bytes = zeros.data();
    EXPECT_TRUE(std::all_of(bytes, bytes + zeros.size(),
                            [](std::uint8_t b) { return b == 0; }));

    // Writing one byte in each of k spread pages makes exactly those
    // k pages resident.
    base::AnonMapping touched(pages * page);
    EXPECT_EQ(test::residentPages(touched.data(), touched.size()), 0u);
    const std::size_t k = 37;
    for (std::size_t i = 0; i < k; ++i)
        touched.data()[(i * 53 % pages) * page + i] = 1;
    EXPECT_EQ(test::residentPages(touched.data(), touched.size()), k);
}
