#include <gtest/gtest.h>

#include "util/fnv.h"

namespace assoc {
namespace {

// Journals, fuzz digests and trace_pack verify lines printed by older
// builds are compared against these values, so they are pinned to
// the published FNV-1a 64-bit test vectors.
TEST(Fnv, MatchesPublishedVectors)
{
    EXPECT_EQ(fnvString(""), kFnvInit);
    EXPECT_EQ(fnvString("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnvString("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv, MixFoldsEightLittleEndianBytes)
{
    std::uint64_t h = kFnvInit;
    fnvMix(h, 0x0807060504030201ULL);
    EXPECT_EQ(h, fnvString("\x01\x02\x03\x04\x05\x06\x07\x08"));
}

TEST(DigestMix, OrderSensitive)
{
    std::uint64_t a = kFnvInit, b = kFnvInit;
    fnvMix(a, 1);
    fnvMix(a, 2);
    fnvMix(b, 2);
    fnvMix(b, 1);
    EXPECT_NE(a, b);
}

TEST(Fnv, Hex16IsZeroPaddedLowerCase)
{
    EXPECT_EQ(hex16(0), "0000000000000000");
    EXPECT_EQ(hex16(0xabcULL), "0000000000000abc");
    EXPECT_EQ(hex16(~0ULL), "ffffffffffffffff");
}

} // namespace
} // namespace assoc
