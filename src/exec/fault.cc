#include "exec/fault.h"

#include <chrono>
#include <fstream>
#include <thread>
#include <vector>

#include "trace/ftr_format.h"
#include "util/rng.h"

namespace assoc {
namespace exec {

const char *
svcFaultKindName(SvcFaultKind kind)
{
    switch (kind) {
      case SvcFaultKind::None:
        return "none";
      case SvcFaultKind::LockHolderStall:
        return "lock-holder-stall";
      case SvcFaultKind::TenantFlood:
        return "tenant-flood";
      case SvcFaultKind::BudgetSqueeze:
        return "budget-squeeze";
      case SvcFaultKind::DeadlineStorm:
        return "deadline-storm";
    }
    return "unknown";
}

std::function<void(std::uint32_t)>
FaultInjector::lockStallHook()
{
    if (plan_.svc_fault != SvcFaultKind::LockHolderStall)
        return {};
    std::uint64_t every =
        plan_.svc_stall_every ? plan_.svc_stall_every : 1;
    std::uint64_t spins = plan_.svc_stall_spins;
    // Captures this: the injector must outlive the engine it arms.
    return [this, every, spins](std::uint32_t) {
        std::uint64_t n =
            locked_ops_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (n % every != 0)
            return;
        injected_.fetch_add(1, std::memory_order_relaxed);
        // A compiler-opaque busy loop: the lock holder really does
        // occupy its stripe for the whole stall.
        volatile std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < spins; ++i)
            sink = sink + i;
    };
}

void
FaultInjector::onJobStart(std::size_t index, unsigned attempt)
{
    if (plan_.fail_job < 0 ||
        index != static_cast<std::size_t>(plan_.fail_job))
        return;
    if (attempt > plan_.fail_attempts)
        return;
    injected_.fetch_add(1, std::memory_order_relaxed);
    std::string what = "injected fault: job " + std::to_string(index) +
                       " attempt " + std::to_string(attempt) +
                       " (seed " + std::to_string(plan_.seed) + ")";
    if (plan_.transient)
        throwError(Error::io(what));
    throwError(Error::data(what));
}

void
FaultInjector::onJobDone(std::size_t)
{
    std::uint64_t done =
        completions_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (cancel_ && plan_.cancel_after >= 0 &&
        done >= static_cast<std::uint64_t>(plan_.cancel_after))
        cancel_->cancel();
}

namespace {

/**
 * Trace wrapper realizing the runaway fault kinds. All behavior is
 * a pure function of (plan, access index), so a retried attempt
 * misbehaves identically.
 */
class RunawayTraceSource : public trace::ForwardingTraceSource
{
  public:
    RunawayTraceSource(std::unique_ptr<trace::TraceSource> inner,
                       const FaultPlan &plan, const CancelToken *token,
                       MemBudget *budget)
        : ForwardingTraceSource(*inner), owned_(std::move(inner)),
          plan_(plan), token_(token), budget_(budget)
    {}

    bool
    next(trace::MemRef &ref) override
    {
        if (error_.failed())
            return false;
        if (n_ == plan_.runaway_at && !engage())
            return false;
        if (plan_.runaway == RunawayKind::Slow &&
            n_ >= plan_.runaway_at &&
            (n_ - plan_.runaway_at) % plan_.slow_every == 0)
            stall();
        if (!inner_.next(ref))
            return false;
        ++n_;
        return true;
    }

    void
    reset() override
    {
        inner_.reset();
        n_ = 0;
        error_ = Error();
        balloon_.clear();
    }

    const Error &
    error() const override
    {
        return error_.failed() ? error_ : inner_.error();
    }

  private:
    /** Fire the planned fault. @return true to keep streaming. */
    bool
    engage()
    {
        switch (plan_.runaway) {
          case RunawayKind::None:
          case RunawayKind::Slow:
            return true;
          case RunawayKind::Hang:
            return hang();
          case RunawayKind::Oom:
            return balloon();
        }
        return true;
    }

    /**
     * Model a worker stuck in non-checkpointing code: poll only for
     * a *delivered* cancel (the watchdog's cancelTimeout, an
     * explicit cancel, SIGINT) — never read the deadline clock
     * ourselves — then surface the token's structured error.
     */
    bool
    hang()
    {
        if (!token_) {
            error_ = Error::internal(
                "hang fault injected without a cancel token");
            return false;
        }
        while (!token_->signalled())
            std::this_thread::sleep_for(
                std::chrono::microseconds(100));
        Expected<void> state = token_->checkpoint();
        error_ = state.ok() ? Error::internal(
                                  "hang released but token not tripped")
                            : Error(state.error());
        error_.withContext("hang fault at access " +
                           std::to_string(n_));
        return false;
    }

    /** Charge the budget in chunks until it runs out (or the plan's
     *  balloon size is reached — then the fault fizzles, which only
     *  happens when no budget limit is armed). */
    bool
    balloon()
    {
        constexpr std::uint64_t chunk = 1ull << 20;
        std::uint64_t total = 0;
        while (total < plan_.oom_bytes) {
            Expected<MemCharge> c = MemCharge::charge(
                budget_, chunk, "oom fault balloon");
            if (!c.ok()) {
                error_ = Error(c.error());
                error_.withContext("oom fault at access " +
                                   std::to_string(n_));
                balloon_.clear();
                return false;
            }
            if (c.value().bytes() == 0)
                return true; // no budget attached: nothing to exhaust
            balloon_.push_back(c.take());
            total += chunk;
        }
        return true;
    }

    /** Seeded busy-wait; wall time only, never results. */
    void
    stall()
    {
        SplitMix64 rng(plan_.seed ^ n_);
        std::uint64_t ns =
            plan_.slow_ns / 2 + rng.next() % (plan_.slow_ns + 1);
        auto until = std::chrono::steady_clock::now() +
                     std::chrono::nanoseconds(ns);
        while (std::chrono::steady_clock::now() < until) {
        }
    }

    std::unique_ptr<trace::TraceSource> owned_;
    FaultPlan plan_;
    const CancelToken *token_;
    MemBudget *budget_;
    std::uint64_t n_ = 0;
    std::vector<MemCharge> balloon_;
    Error error_;
};

} // namespace

std::unique_ptr<trace::TraceSource>
FaultInjector::wrapJobTrace(std::unique_ptr<trace::TraceSource> src,
                            std::size_t index,
                            const CancelToken *token,
                            MemBudget *budget) const
{
    if (plan_.runaway == RunawayKind::None || plan_.runaway_job < 0 ||
        index != static_cast<std::size_t>(plan_.runaway_job))
        return src;
    return std::make_unique<RunawayTraceSource>(std::move(src), plan_,
                                                token, budget);
}

std::uint64_t
FaultInjector::corruptBytes(const std::string &path, std::uint64_t seed,
                            unsigned flips, std::uint64_t skip)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    if (!f)
        return 0;
    f.seekg(0, std::ios::end);
    std::uint64_t size = static_cast<std::uint64_t>(f.tellg());
    if (size <= skip)
        return 0;
    std::uint64_t body = size - skip;

    SplitMix64 rng(seed);
    std::uint64_t flipped = 0;
    for (unsigned i = 0; i < flips; ++i) {
        std::uint64_t off = skip + rng.next() % body;
        f.seekg(static_cast<std::streamoff>(off));
        char c = 0;
        f.read(&c, 1);
        c = static_cast<char>(c ^
                              static_cast<char>(1 + rng.next() % 255));
        f.seekp(static_cast<std::streamoff>(off));
        f.write(&c, 1);
        ++flipped;
    }
    f.flush();
    return flipped;
}

void
FaultInjector::truncateFile(const std::string &path,
                            std::uint64_t keep_bytes)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return;
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    if (data.size() > keep_bytes)
        data.resize(keep_bytes);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(),
              static_cast<std::streamsize>(data.size()));
}

std::uint64_t
FaultInjector::tearFooter(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return 0;
    std::uint64_t size = static_cast<std::uint64_t>(in.tellg());
    if (size < trace::ftr::kTrailerBytes)
        return 0;
    std::uint8_t tr[trace::ftr::kTrailerBytes] = {};
    in.seekg(static_cast<std::streamoff>(size - sizeof(tr)));
    in.read(reinterpret_cast<char *>(tr), sizeof(tr));
    if (in.gcount() != static_cast<std::streamsize>(sizeof(tr)) ||
        trace::ftr::getU32(tr + 4) != trace::ftr::kTrailerMagic)
        return 0;
    std::uint64_t cut =
        trace::ftr::getU32(tr) + trace::ftr::kTrailerBytes;
    if (cut > size)
        return 0;
    in.close();
    truncateFile(path, size - cut);
    return cut;
}

bool
FaultInjector::unpatchHeader(const std::string &path)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    if (!f)
        return false;
    std::uint8_t hdr[trace::ftr::kHeaderBytes] = {};
    f.read(reinterpret_cast<char *>(hdr), sizeof(hdr));
    if (f.gcount() != static_cast<std::streamsize>(sizeof(hdr)))
        return false;
    Expected<trace::ftr::FileHeader> h =
        trace::ftr::decodeFileHeader(hdr, sizeof(hdr));
    if (!h.ok())
        return false;
    trace::ftr::FileHeader zeroed = h.take();
    zeroed.total_records = 0;
    trace::ftr::encodeFileHeader(hdr, zeroed);
    f.clear();
    f.seekp(0);
    f.write(reinterpret_cast<const char *>(hdr), sizeof(hdr));
    f.flush();
    return f.good();
}

void
ThrowingAuditor::audit(const core::ProbeMeter &, const mem::L2AccessView &,
                       const core::LookupInput &,
                       const core::LookupResult &)
{
    std::uint64_t n = count_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (throw_at_ != 0 && n == throw_at_)
        throwError(Error::internal(
            "injected lookup fault at audit " + std::to_string(n)));
}

} // namespace exec
} // namespace assoc
