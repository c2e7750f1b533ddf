#include "core/hash_rehash.h"

#include "util/bitops.h"
#include "util/logging.h"

namespace assoc {
namespace core {

HashRehashShadow::HashRehashShadow(std::uint32_t frames)
    : frames_(frames)
{
    fatalIf(!isPow2(frames_) || frames_ < 2,
            "hash-rehash needs a power-of-two frame count >= 2");
    index_bits_ = log2i(frames_);
    array_.resize(frames_);
}

std::uint32_t
HashRehashShadow::primaryIndex(mem::BlockAddr block) const
{
    return block & static_cast<std::uint32_t>(maskBits(index_bits_));
}

std::uint32_t
HashRehashShadow::rehashIndex(std::uint32_t primary) const
{
    // Flip the top index bit: the classic rehash function.
    return primary ^ (std::uint32_t{1} << (index_bits_ - 1));
}

void
HashRehashShadow::observe(const mem::L2AccessView &view)
{
    // Only read-ins exercise the lookup path (write-backs are
    // zero-probe under the optimization, as for every scheme).
    if (view.type != mem::L2ReqType::ReadIn)
        return;

    mem::BlockAddr block = view.block;
    std::uint32_t p = primaryIndex(block);
    std::uint32_t r = rehashIndex(p);

    Frame &prim = array_[p];
    if (prim.valid && prim.block == block) {
        hits_.record(true);
        hit_probes_.record(1.0);
        return;
    }

    Frame &sec = array_[r];
    if (sec.valid && sec.block == block) {
        // Rehash hit: promote to the primary slot (one swap).
        hits_.record(true);
        hit_probes_.record(2.0);
        ++rehash_hits_;
        std::swap(prim, sec);
        ++swaps_;
        return;
    }

    // Miss: both probes were spent. Fill the primary slot and
    // demote its previous occupant into the rehash slot.
    hits_.record(false);
    miss_probes_.record(2.0);
    if (prim.valid) {
        sec = prim; // the demoted block overwrites the rehash slot
        ++swaps_;
    }
    prim.block = block;
    prim.valid = true;
}

void
HashRehashShadow::onFlush()
{
    for (Frame &f : array_)
        f.valid = false;
}

double
HashRehashShadow::rehashFraction() const
{
    std::uint64_t h = hits_.hits();
    return h == 0 ? 0.0
                  : static_cast<double>(rehash_hits_) /
                        static_cast<double>(h);
}

double
HashRehashShadow::totalProbes() const
{
    MeanAccum all = hit_probes_;
    mergeStats(all, miss_probes_);
    return all.mean();
}

} // namespace core
} // namespace assoc
