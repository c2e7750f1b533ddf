#include "mem/third_level.h"

#include "util/logging.h"

namespace assoc {
namespace mem {

double
ThirdLevelStats::localMissRatio() const
{
    std::uint64_t reqs = read_ins + write_backs;
    return reqs == 0 ? 0.0
                     : static_cast<double>(read_in_misses +
                                           write_back_misses) /
                           reqs;
}

double
ThirdLevelStats::writeBackFraction() const
{
    std::uint64_t reqs = read_ins + write_backs;
    return reqs == 0 ? 0.0 : static_cast<double>(write_backs) / reqs;
}

ThirdLevelCache::ThirdLevelCache(const CacheGeometry &l3,
                                 const CacheGeometry &l2,
                                 ReplPolicy policy)
    : l2_geom_(l2), l3_(l3, policy)
{
    fatalIf(l2.blockBytes() > l3.blockBytes(),
            "level-two block size exceeds level-three block size");
}

void
ThirdLevelCache::addObserver(L2Observer *obs)
{
    fanout_.add(obs);
}

BlockAddr
ThirdLevelCache::l3BlockOf(BlockAddr l2_block) const
{
    return l3_.geom().blockAddrOf(l2_geom_.byteAddrOf(l2_block));
}

void
ThirdLevelCache::access(BlockAddr l3_block, L2ReqType type)
{
    const std::uint32_t set = l3_.geom().setOf(l3_block);
    int way = l3_.findWay(l3_block);
    fanout_.notify(l3_, type, l3_block, way, -1);

    if (type == L2ReqType::ReadIn) {
        ++stats_.read_ins;
        if (way >= 0) {
            ++stats_.read_in_hits;
            l3_.touch(set, way);
        } else {
            ++stats_.read_in_misses;
            // Fetch from memory; dirty victims go to memory.
            l3_.fill(l3_block, false);
        }
    } else {
        ++stats_.write_backs;
        if (way >= 0) {
            ++stats_.write_back_hits;
            l3_.setDirty(set, way);
            l3_.touch(set, way);
        } else {
            ++stats_.write_back_misses;
            l3_.fill(l3_block, true);
        }
    }
}

void
ThirdLevelCache::fetch(BlockAddr l2_block)
{
    access(l3BlockOf(l2_block), L2ReqType::ReadIn);
}

void
ThirdLevelCache::writeBack(BlockAddr l2_block)
{
    access(l3BlockOf(l2_block), L2ReqType::WriteBack);
}

void
ThirdLevelCache::onFlush()
{
    l3_.flush();
    fanout_.onFlush();
}

} // namespace mem
} // namespace assoc
