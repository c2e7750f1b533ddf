#include "trace/synthetic.h"

#include "util/logging.h"

namespace assoc {
namespace trace {

LoopTrace::LoopTrace(Addr base, std::uint32_t block_bytes,
                     std::uint32_t blocks, std::uint64_t count)
    : base_(base), block_bytes_(block_bytes), blocks_(blocks),
      count_(count)
{
    fatalIf(block_bytes_ == 0, "LoopTrace: zero block size");
    fatalIf(blocks_ == 0, "LoopTrace: empty working set");
}

bool
LoopTrace::next(MemRef &ref)
{
    if (pos_ >= count_)
        return false;
    std::uint32_t idx = static_cast<std::uint32_t>(pos_ % blocks_);
    ref.addr = base_ + idx * block_bytes_;
    ref.type = RefType::Read;
    ref.pid = 0;
    ++pos_;
    return true;
}

void
LoopTrace::reset()
{
    pos_ = 0;
}

UniformRandomTrace::UniformRandomTrace(Addr base,
                                       std::uint32_t block_bytes,
                                       std::uint32_t blocks,
                                       std::uint64_t count,
                                       std::uint64_t seed,
                                       double write_fraction)
    : base_(base), block_bytes_(block_bytes), blocks_(blocks),
      count_(count), seed_(seed), write_fraction_(write_fraction),
      rng_(seed)
{
    fatalIf(block_bytes_ == 0, "UniformRandomTrace: zero block size");
    fatalIf(blocks_ == 0, "UniformRandomTrace: empty region");
    fatalIf(write_fraction_ < 0.0 || write_fraction_ > 1.0,
            "UniformRandomTrace: write fraction out of [0, 1]");
}

bool
UniformRandomTrace::next(MemRef &ref)
{
    if (pos_ >= count_)
        return false;
    ref.addr = base_ + rng_.below(blocks_) * block_bytes_;
    ref.type = (write_fraction_ > 0.0 && rng_.chance(write_fraction_))
                   ? RefType::Write
                   : RefType::Read;
    ref.pid = 0;
    ++pos_;
    return true;
}

void
UniformRandomTrace::reset()
{
    rng_.reseed(seed_);
    pos_ = 0;
}

} // namespace trace
} // namespace assoc
