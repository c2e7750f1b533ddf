#include <gtest/gtest.h>

#include "util/logging.h"

#include <string>
#include <string_view>

namespace assoc {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    try {
        fatal("bad config");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: bad config");
    }
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug"), PanicError);
    try {
        panic("invariant");
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: invariant");
    }
}

TEST(Logging, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "no"));
    EXPECT_THROW(fatalIf(true, "yes"), FatalError);
}

TEST(Logging, PanicIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(panicIf(false, "no"));
    EXPECT_THROW(panicIf(true, "yes"), PanicError);
}

// The what() text a failing fatalIf/panicIf throws, or "" if it
// throws nothing.
template <typename Error, typename Check>
std::string
thrownText(Check check)
{
    try {
        check();
    } catch (const Error &e) {
        return e.what();
    }
    return "";
}

TEST(Logging, FailingChecksCarryTheMessageInEveryArgumentForm)
{
    const std::string lvalue = "from a string";
    const std::string name = "jobs";
    const char *pointer = "from a pointer";
    // A view that is not NUL-terminated: passing .data() along would
    // read on past "abc".
    const std::string_view prefix = std::string_view("abcdef").substr(0, 3);

    EXPECT_EQ(thrownText<FatalError>([] { fatalIf(true, "literal"); }),
              "fatal: literal");
    EXPECT_EQ(thrownText<FatalError>([&] { fatalIf(true, lvalue); }),
              "fatal: from a string");
    EXPECT_EQ(thrownText<FatalError>(
                  [&] { fatalIf(true, "flag --" + name + " is bad"); }),
              "fatal: flag --jobs is bad");
    EXPECT_EQ(thrownText<FatalError>([&] { fatalIf(true, pointer); }),
              "fatal: from a pointer");
    EXPECT_EQ(thrownText<FatalError>([&] { fatalIf(true, prefix); }),
              "fatal: abc");

    EXPECT_EQ(thrownText<PanicError>([] { panicIf(true, "literal"); }),
              "panic: literal");
    EXPECT_EQ(thrownText<PanicError>([&] { panicIf(true, lvalue); }),
              "panic: from a string");
    EXPECT_EQ(thrownText<PanicError>(
                  [&] { panicIf(true, "flag --" + name + " is bad"); }),
              "panic: flag --jobs is bad");
    EXPECT_EQ(thrownText<PanicError>([&] { panicIf(true, pointer); }),
              "panic: from a pointer");
    EXPECT_EQ(thrownText<PanicError>([&] { panicIf(true, prefix); }),
              "panic: abc");
}

TEST(Logging, FatalErrorIsARuntimeError)
{
    // Library users can catch std::runtime_error for user errors
    // and std::logic_error for bugs.
    EXPECT_THROW(fatal("x"), std::runtime_error);
    EXPECT_THROW(panic("x"), std::logic_error);
}

TEST(Logging, WarnAndInformDoNotThrow)
{
    setQuiet(true);
    EXPECT_NO_THROW(warn("w"));
    EXPECT_NO_THROW(inform("i"));
    setQuiet(false);
}

} // namespace
} // namespace assoc
