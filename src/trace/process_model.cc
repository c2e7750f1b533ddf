#include "trace/process_model.h"

#include <algorithm>

#include "util/bitops.h"
#include "util/logging.h"

namespace assoc {
namespace trace {

namespace {

// Fixed offsets of the three regions inside a process address space.
// Each process gets a 64 MB space; code, stack and heap live in
// separate 16 MB quadrants so their tag bits differ.
constexpr Addr kCodeOffset = 0x0000000;
constexpr Addr kStackOffset = 0x1000000;
constexpr Addr kHeapOffset = 0x2000000;
constexpr Addr kQuadrantBytes = 0x1000000;

} // namespace

ProcessModel::ProcessModel(std::uint8_t pid, Addr base,
                           const ProcessParams &params, std::uint64_t seed)
    : pid_(pid), base_(base), params_(params),
      rng_(seed, 0x5bd1e995u ^ pid),
      zipf_(params.zipf_theta), reuse_dist_(params.geom_p)
{
    fatalIf(params_.functions == 0, "ProcessModel: need >= 1 function");
    fatalIf(!isPow2(params_.heap_block_bytes),
            "ProcessModel: heap_block_bytes must be a power of two");
    fatalIf(params_.chunk_blocks == 0,
            "ProcessModel: chunk_blocks must be positive");

    // Scatter function start addresses through the code quadrant
    // (linked objects and shared libraries are not contiguous).
    // Keeps each function's body contiguous, spreads the upper
    // address bits.
    func_addr_.resize(params_.functions);
    for (unsigned f = 0; f < params_.functions; ++f) {
        Addr slot = rng_.below(kQuadrantBytes / params_.function_bytes);
        func_addr_[f] = base_ + kCodeOffset +
                        slot * params_.function_bytes;
    }

    pc_ = func_addr_[0];
    func_start_ = pc_;
    hot_funcs_.push_back(0);
}

MemRef
ProcessModel::nextRef()
{
    if (rng_.chance(params_.ifetch_fraction))
        return instructionRef();
    return dataRef();
}

void
ProcessModel::jump()
{
    double u = rng_.uniform();
    if (u < 0.60) {
        // Loop back within the current function: short backward
        // branch whose span is geometric (tight loops dominate).
        Addr span = 4 * (1 + rng_.geometric(loop_span_, 256));
        Addr target = pc_ >= func_start_ + span ? pc_ - span : func_start_;
        pc_ = target;
    } else if (u < 0.85) {
        // Call: prefer recently used (hot) functions via an MTF
        // list, occasionally branching to a cold one.
        std::uint32_t fid;
        if (!hot_funcs_.empty() && rng_.chance(0.8)) {
            std::uint32_t pos =
                static_cast<std::uint32_t>(std::min<std::size_t>(
                    rng_.geometric(hot_pick_, 255), hot_funcs_.size() - 1));
            fid = hot_funcs_[pos];
            hot_funcs_.erase(hot_funcs_.begin() + pos);
        } else {
            fid = rng_.below(params_.functions);
            auto it = std::find(hot_funcs_.begin(), hot_funcs_.end(), fid);
            if (it != hot_funcs_.end())
                hot_funcs_.erase(it);
        }
        hot_funcs_.insert(hot_funcs_.begin(), fid);
        if (hot_funcs_.size() > 16)
            hot_funcs_.pop_back();

        if (ret_stack_.size() < 64) {
            ret_stack_.push_back(pc_);
            ++call_depth_;
        }
        func_start_ = func_addr_[fid];
        pc_ = func_start_;
    } else {
        // Return.
        if (!ret_stack_.empty()) {
            pc_ = ret_stack_.back();
            ret_stack_.pop_back();
            if (call_depth_ > 1)
                --call_depth_;
            // Recover the enclosing function start (aligned down).
            Addr rel = pc_ - (base_ + kCodeOffset);
            func_start_ = base_ + kCodeOffset +
                          (rel / params_.function_bytes) *
                              params_.function_bytes;
        } else {
            pc_ = func_start_;
        }
    }
}

MemRef
ProcessModel::instructionRef()
{
    MemRef r{pc_, RefType::Ifetch, pid_};
    pc_ += 4;
    // Keep the PC inside the current function; fall off the end ==
    // implicit loop back to the function start.
    if (pc_ >= func_start_ + params_.function_bytes)
        pc_ = func_start_;
    if (rng_.chance(params_.jump_prob))
        jump();
    return r;
}

Addr
ProcessModel::stackAddr()
{
    // References cluster around the current frame: frame base plus a
    // small geometric offset downward (toward older frames).
    Addr frame = base_ + kStackOffset + call_depth_ * 96;
    Addr back = 4 * rng_.geometric(stack_back_, 128);
    Addr addr = frame >= back ? frame - back : base_ + kStackOffset;
    return addr;
}

Addr
ProcessModel::heapAddr()
{
    const unsigned blk = params_.heap_block_bytes;
    Addr block_addr;
    if (heap_blocks_.empty() || rng_.chance(params_.new_block_prob)) {
        // Footprint growth: bump allocation within the current
        // arena chunk; chunks are scattered through the heap
        // quadrant like mmap regions and malloc arenas, so tag bits
        // above the growth region carry entropy.
        if (chunk_used_ == 0 || chunk_used_ >= params_.chunk_blocks) {
            Addr chunk_bytes = params_.chunk_blocks * blk;
            Addr slots = kQuadrantBytes / chunk_bytes;
            chunk_base_ = base_ + kHeapOffset +
                          rng_.below(slots) * chunk_bytes;
            chunk_used_ = 0;
        }
        block_addr = chunk_base_ + chunk_used_ * blk;
        ++chunk_used_;
        heap_blocks_.insert(heap_blocks_.begin(), block_addr);
    } else {
        std::uint32_t n = static_cast<std::uint32_t>(heap_blocks_.size());
        std::uint32_t dist;
        if (rng_.chance(params_.short_reuse_prob)) {
            dist = rng_.geometric(reuse_dist_, n - 1);
        } else {
            dist = zipf_.draw(rng_, n);
        }
        if (dist >= n)
            dist = n - 1;
        block_addr = heap_blocks_[dist];
        // Move to front to maintain recency order.
        heap_blocks_.erase(heap_blocks_.begin() + dist);
        heap_blocks_.insert(heap_blocks_.begin(), block_addr);
    }
    // Offsets within a block are biased low (geometric): repeated
    // touches of a data structure mostly hit the same words, which
    // is what gives real traces their fine-grained (level-one
    // block) temporal locality.
    Addr off = 4 * rng_.geometric(word_offset_, blk / 4 - 1);
    return block_addr + off;
}

MemRef
ProcessModel::dataRef()
{
    Addr addr = rng_.chance(params_.stack_fraction) ? stackAddr()
                                                    : heapAddr();
    RefType type = rng_.chance(params_.write_fraction) ? RefType::Write
                                                       : RefType::Read;
    return MemRef{addr, type, pid_};
}

} // namespace trace
} // namespace assoc
