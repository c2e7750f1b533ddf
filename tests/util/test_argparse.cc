#include <gtest/gtest.h>

#include "util/argparse.h"
#include "util/error.h"
#include "util/logging.h"

namespace assoc {
namespace {

ArgParser
makeParser()
{
    ArgParser p("prog", "test parser");
    p.addFlag("count", "10", "a number");
    p.addFlag("name", "cache", "a string");
    p.addFlag("ratio", "0.5", "a double");
    p.addSwitch("verbose", "a switch");
    return p;
}

TEST(ArgParser, DefaultsApply)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog"};
    ASSERT_TRUE(p.parse(1, argv));
    EXPECT_EQ(p.getInt("count"), 10);
    EXPECT_EQ(p.getString("name"), "cache");
    EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 0.5);
    EXPECT_FALSE(p.getBool("verbose"));
    EXPECT_FALSE(p.given("count"));
}

TEST(ArgParser, EqualsForm)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog", "--count=42", "--name=foo"};
    ASSERT_TRUE(p.parse(3, argv));
    EXPECT_EQ(p.getInt("count"), 42);
    EXPECT_EQ(p.getString("name"), "foo");
    EXPECT_TRUE(p.given("count"));
}

TEST(ArgParser, SpaceForm)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog", "--count", "7"};
    ASSERT_TRUE(p.parse(3, argv));
    EXPECT_EQ(p.getInt("count"), 7);
}

TEST(ArgParser, SwitchPresenceMeansTrue)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog", "--verbose"};
    ASSERT_TRUE(p.parse(2, argv));
    EXPECT_TRUE(p.getBool("verbose"));
}

TEST(ArgParser, SwitchExplicitValue)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog", "--verbose=false"};
    ASSERT_TRUE(p.parse(2, argv));
    EXPECT_FALSE(p.getBool("verbose"));
}

TEST(ArgParser, PositionalArguments)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog", "in.trace", "--count=1", "out.trace"};
    ASSERT_TRUE(p.parse(4, argv));
    ASSERT_EQ(p.positional().size(), 2u);
    EXPECT_EQ(p.positional()[0], "in.trace");
    EXPECT_EQ(p.positional()[1], "out.trace");
}

TEST(ArgParser, UnknownFlagIsFatal)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog", "--bogus=1"};
    EXPECT_THROW(p.parse(2, argv), FatalError);
}

TEST(ArgParser, MissingValueIsFatal)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog", "--count"};
    EXPECT_THROW(p.parse(2, argv), FatalError);
}

TEST(ArgParser, BadIntegerIsFatal)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog", "--count=abc"};
    ASSERT_TRUE(p.parse(2, argv));
    EXPECT_THROW(p.getInt("count"), FatalError);
}

TEST(ArgParser, TrailingJunkIsFatal)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog", "--count=12xyz"};
    ASSERT_TRUE(p.parse(2, argv));
    EXPECT_THROW(p.getInt("count"), FatalError);
}

TEST(ArgParser, HexIntegersAccepted)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog", "--count=0x10"};
    ASSERT_TRUE(p.parse(2, argv));
    EXPECT_EQ(p.getInt("count"), 16);
}

TEST(ArgParser, UintRejectsNegative)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog", "--count=-5"};
    ASSERT_TRUE(p.parse(2, argv));
    EXPECT_THROW(p.getUint("count"), FatalError);
}

TEST(ArgParser, Uint32RejectsValuesPast32Bits)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog", "--count=4294967297"};
    ASSERT_TRUE(p.parse(2, argv));
    try {
        p.getUint32("count");
        FAIL() << "4294967297 must not wrap to 1";
    } catch (const ErrorException &e) {
        EXPECT_EQ(e.error().code(), ErrorCode::Usage);
        EXPECT_NE(std::string(e.what()).find(
                      "--count=4294967297 is out of range "
                      "(max 4294967295)"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(ArgParser::checkUint32("count", 4294967295u),
              4294967295u);
}

TEST(ArgParser, HelpReturnsFalse)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, UsageMentionsFlags)
{
    ArgParser p = makeParser();
    std::string u = p.usage();
    EXPECT_NE(u.find("--count"), std::string::npos);
    EXPECT_NE(u.find("--verbose"), std::string::npos);
    EXPECT_NE(u.find("a number"), std::string::npos);
}

TEST(ArgParser, UnregisteredLookupPanics)
{
    ArgParser p = makeParser();
    const char *argv[] = {"prog"};
    ASSERT_TRUE(p.parse(1, argv));
    EXPECT_THROW(p.getString("nope"), PanicError);
}

} // namespace
} // namespace assoc
