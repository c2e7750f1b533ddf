// Unit tests for the Watchdog deadline-enforcement thread: arming,
// deadline misses tripping tokens, stall reports, grace-period
// escalation, and disarm idempotence (exec/watchdog.h).

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "exec/watchdog.h"

namespace assoc {
namespace exec {
namespace {

constexpr std::uint64_t kMs = 1000 * 1000;

Watchdog::Options
quiet()
{
    Watchdog::Options o;
    o.sample_ns = 1 * kMs;
    o.log = false;
    return o;
}

/** Spin until @p pred or ~2s; false on timeout. */
template <typename Pred>
bool
within(Pred pred)
{
    for (int i = 0; i < 2000; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

TEST(Watchdog, IdleWatchdogDoesNothing)
{
    Watchdog dog(quiet());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(dog.armedCount(), 0u);
    EXPECT_TRUE(dog.reports().empty());
}

TEST(Watchdog, NeverDeadlineIsHeartbeatOnly)
{
    Watchdog dog(quiet());
    CancelToken token;
    dog.arm(0, &token, Deadline::never(), 0x1234, "attempt 1",
            nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(token.cancelled());
    EXPECT_TRUE(dog.reports().empty());
    dog.disarm(0);
    EXPECT_EQ(dog.armedCount(), 0u);
}

TEST(Watchdog, DeadlineMissCancelsTokenAndFilesAReport)
{
    Watchdog dog(quiet());
    CancelToken token;
    MemBudget budget;
    ASSERT_TRUE(budget.tryCharge(4096, "x").ok());
    token.checkpoint(); // one heartbeat for the report to pick up
    dog.arm(7, &token, Deadline::after(5 * kMs), 0xabcdef, "attempt 2",
            &budget);

    ASSERT_TRUE(within([&] { return token.signalled(); }))
        << "watchdog never tripped the token";
    EXPECT_EQ(token.reason(), CancelToken::Reason::TimedOut);

    std::vector<StallReport> reports = dog.reports();
    ASSERT_FALSE(reports.empty());
    const StallReport &r = reports.front();
    EXPECT_EQ(r.job, 7u);
    EXPECT_EQ(r.spec_hash, 0xabcdefu);
    EXPECT_EQ(r.phase, "attempt 2");
    EXPECT_EQ(r.misses, 1u);
    EXPECT_GE(r.heartbeats, 1u);
    EXPECT_EQ(r.bytes_charged, 4096u);
    EXPECT_GT(r.elapsed_ns, 0u);
    dog.disarm(7);
}

TEST(Watchdog, GracePeriodMissEscalates)
{
    Watchdog::Options o = quiet();
    o.grace_ns = 10 * kMs;
    Watchdog dog(o);
    CancelToken token;
    // Arm and never disarm: models a wedged job that ignores the
    // cancelled token.
    dog.arm(3, &token, Deadline::after(2 * kMs), 0x99, "attempt 1",
            nullptr);

    ASSERT_TRUE(within([&] { return dog.reports().size() >= 2; }))
        << "no escalation report";
    std::vector<StallReport> reports = dog.reports();
    EXPECT_EQ(reports[0].misses, 1u);
    EXPECT_EQ(reports[1].misses, 2u);
    EXPECT_EQ(reports[1].job, 3u);

    // Escalation is terminal: no third report.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(dog.reports().size(), 2u);
    dog.disarm(3);
}

TEST(Watchdog, DisarmBeforeTheDeadlineLeavesTheTokenAlone)
{
    Watchdog dog(quiet());
    CancelToken token;
    dog.arm(1, &token, Deadline::after(500 * kMs), 0x5, "attempt 1",
            nullptr);
    EXPECT_EQ(dog.armedCount(), 1u);
    dog.disarm(1);
    EXPECT_EQ(dog.armedCount(), 0u);
    dog.disarm(1); // idempotent
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(token.cancelled());
    EXPECT_TRUE(dog.reports().empty());
}

TEST(Watchdog, WatchesSeveralJobsIndependently)
{
    Watchdog dog(quiet());
    CancelToken doomed, healthy;
    dog.arm(0, &doomed, Deadline::after(5 * kMs), 0xd00, "attempt 1",
            nullptr);
    dog.arm(1, &healthy, Deadline::after(3600ull * 1000 * 1000 * kMs),
            0xea1, "attempt 1", nullptr);

    ASSERT_TRUE(within([&] { return doomed.signalled(); }));
    EXPECT_FALSE(healthy.cancelled());
    std::vector<StallReport> reports = dog.reports();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].job, 0u);
    dog.disarm(0);
    dog.disarm(1);
}

TEST(Watchdog, DestructionJoinsWithoutTrippingTokens)
{
    CancelToken token;
    {
        Watchdog dog(quiet());
        dog.arm(0, &token, Deadline::after(3600ull * 1000 * 1000 * kMs),
                0x1, "attempt 1", nullptr);
        // Destroyed while armed: must join cleanly, not cancel.
    }
    EXPECT_FALSE(token.cancelled());
}

} // namespace
} // namespace exec
} // namespace assoc
