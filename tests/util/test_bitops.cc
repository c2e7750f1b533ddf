#include <gtest/gtest.h>

#include <bit>

#include "util/bitops.h"
#include "util/rng.h"

namespace assoc {
namespace {

TEST(BitOps, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(4));
    EXPECT_FALSE(isPow2(6));
    EXPECT_TRUE(isPow2(std::uint64_t{1} << 63));
    EXPECT_FALSE(isPow2((std::uint64_t{1} << 63) + 1));
}

TEST(BitOps, Log2i)
{
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(2), 1u);
    EXPECT_EQ(log2i(4096), 12u);
    EXPECT_EQ(log2i(std::uint64_t{1} << 40), 40u);
}

TEST(BitOps, Log2iRejectsNonPow2)
{
    EXPECT_THROW(log2i(0), PanicError);
    EXPECT_THROW(log2i(3), PanicError);
}

TEST(BitOps, Log2Ceil)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(4), 2u);
    EXPECT_EQ(log2Ceil(5), 3u);
    EXPECT_THROW(log2Ceil(0), PanicError);
}

TEST(BitOps, MaskBits)
{
    EXPECT_EQ(maskBits(0), 0u);
    EXPECT_EQ(maskBits(1), 1u);
    EXPECT_EQ(maskBits(16), 0xffffu);
    EXPECT_EQ(maskBits(32), 0xffffffffu);
    EXPECT_EQ(maskBits(64), ~std::uint64_t{0});
}

TEST(BitOps, BitField)
{
    EXPECT_EQ(bitField(0xdeadbeef, 0, 8), 0xefu);
    EXPECT_EQ(bitField(0xdeadbeef, 8, 8), 0xbeu);
    EXPECT_EQ(bitField(0xdeadbeef, 16, 16), 0xdeadu);
    EXPECT_EQ(bitField(0xff, 4, 0), 0u);
}

TEST(BitOps, Popcount)
{
    EXPECT_EQ(popcount(0), 0u);
    EXPECT_EQ(popcount(0xff), 8u);
    EXPECT_EQ(popcount(~std::uint64_t{0}), 64u);
    static_assert(popcount(0x8000000000000001ULL) == 2);
}

TEST(BitOps, PopcountMatchesTheStandardCount)
{
    auto same = [](std::uint64_t x) {
        EXPECT_EQ(popcount(x), static_cast<unsigned>(std::popcount(x)))
            << std::hex << x;
    };
    same(0);
    same(~std::uint64_t{0});
    for (unsigned i = 0; i < 64; ++i) {
        const std::uint64_t bit = std::uint64_t{1} << i;
        same(bit);
        same(~bit);
        if (i + 1 < 64)
            same(bit | bit << 1); // adjacent pair
    }
    Pcg32 rng(0xb175);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t x = rng.next64();
        same(x);
        same(x & rng.next64()); // sparser words
    }
}

} // namespace
} // namespace assoc
