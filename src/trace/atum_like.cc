#include "trace/atum_like.h"

#include <algorithm>

#include "util/logging.h"

namespace assoc {
namespace trace {

Error
validateConfig(const AtumLikeConfig &cfg)
{
    if (cfg.segments == 0)
        return Error::usage("AtumLikeGenerator: zero segments");
    if (cfg.refs_per_segment == 0)
        return Error::usage("AtumLikeGenerator: zero refs per segment");
    if (cfg.processes == 0 || cfg.processes > 60)
        return Error::usage(
            "AtumLikeGenerator: processes must be in [1, 60]");
    return Error();
}

AtumLikeGenerator::AtumLikeGenerator(const AtumLikeConfig &cfg)
    : cfg_(cfg),
      os_burst_(1.0 / static_cast<double>(cfg.os_burst_mean)),
      user_burst_(1.0 / static_cast<double>(cfg.switch_mean))
{
    Error e = validateConfig(cfg_);
    if (e.failed())
        throwError(std::move(e));
    reset();
}

std::uint64_t
AtumLikeGenerator::totalRefs() const
{
    std::uint64_t flushes =
        cfg_.flush_between_segments ? cfg_.segments - 1 : 0;
    return static_cast<std::uint64_t>(cfg_.segments) *
               cfg_.refs_per_segment + flushes;
}

void
AtumLikeGenerator::startSegment(unsigned seg)
{
    segment_ = seg;
    emitted_in_segment_ = 0;

    // Derive per-segment seeds from the master seed so the 23
    // segments behave like 23 different (but related) workloads.
    SplitMix64 seeder(cfg_.seed + 0x9e37u * (seg + 1));
    sched_rng_.reseed(seeder.next(), seeder.next());

    procs_.clear();
    // pid 0: operating system. Shares one address space across
    // segments (prefix 1).
    procs_.push_back(std::make_unique<ProcessModel>(
        0, Addr{1} << 26, cfg_.os, seeder.next()));
    for (unsigned p = 0; p < cfg_.processes; ++p) {
        // Vary per-process behaviour slightly so processes are not
        // clones: scale footprint growth and code size.
        ProcessParams params = cfg_.user;
        double scale = 0.6 + 0.2 * (seeder.next() % 5); // 0.6 .. 1.4
        params.new_block_prob *= scale;
        params.functions =
            std::max(8u, static_cast<unsigned>(params.functions * scale));
        procs_.push_back(std::make_unique<ProcessModel>(
            static_cast<std::uint8_t>(p + 1),
            Addr{static_cast<Addr>(p + 2)} << 26, params, seeder.next()));
    }
    current_proc_ = 1 % procs_.size();
    burst_left_ = 0;
}

void
AtumLikeGenerator::scheduleBurst()
{
    // Pick the next process to run: the OS with probability
    // os_burst_prob (shorter bursts), otherwise round-robin over the
    // user processes with geometric burst lengths.
    if (procs_.size() > 1 && sched_rng_.chance(cfg_.os_burst_prob)) {
        current_proc_ = 0;
        burst_left_ = 1 + sched_rng_.geometric(os_burst_);
    } else {
        std::size_t users = procs_.size() - 1;
        if (users == 0) {
            current_proc_ = 0;
        } else {
            std::size_t cur = current_proc_ == 0 ? 0 : current_proc_ - 1;
            current_proc_ = 1 + (cur + 1) % users;
        }
        burst_left_ = 1 + sched_rng_.geometric(user_burst_);
    }
}

bool
AtumLikeGenerator::next(MemRef &ref)
{
    if (done_)
        return false;

    if (flush_pending_) {
        flush_pending_ = false;
        startSegment(segment_ + 1);
        ref = MemRef::flush();
        return true;
    }

    if (emitted_in_segment_ >= cfg_.refs_per_segment) {
        // Segment finished.
        if (segment_ + 1 >= cfg_.segments) {
            done_ = true;
            return false;
        }
        if (cfg_.flush_between_segments) {
            flush_pending_ = true;
            return next(ref);
        }
        startSegment(segment_ + 1);
    }

    ref = nextInSegment();
    return true;
}

MemRef
AtumLikeGenerator::nextInSegment()
{
    if (burst_left_ == 0)
        scheduleBurst();
    --burst_left_;
    ++emitted_in_segment_;
    return procs_[current_proc_]->nextRef();
}

void
AtumLikeGenerator::emitSegment(unsigned seg, MemRef *out)
{
    panicIf(seg >= cfg_.segments,
            "AtumLikeGenerator::emitSegment: segment out of range");
    done_ = false;
    flush_pending_ = false;
    startSegment(seg);
    for (std::uint64_t i = 0; i < cfg_.refs_per_segment; ++i)
        out[i] = nextInSegment();
}

void
AtumLikeGenerator::reset()
{
    done_ = false;
    flush_pending_ = false;
    startSegment(0);
}

} // namespace trace
} // namespace assoc
