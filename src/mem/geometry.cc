#include "mem/geometry.h"

#include "util/logging.h"

namespace assoc {
namespace mem {

CacheGeometry::CacheGeometry(std::uint32_t size_bytes,
                             std::uint32_t block_bytes,
                             std::uint32_t assoc)
    : size_(size_bytes), block_(block_bytes), assoc_(assoc)
{
    fatalIf(!isPow2(size_), "cache size must be a power of two");
    fatalIf(!isPow2(block_), "block size must be a power of two");
    fatalIf(!isPow2(assoc_), "associativity must be a power of two");
    fatalIf(block_ < 4, "block size must be at least 4 bytes");
    std::uint64_t frames = std::uint64_t{size_} / block_;
    fatalIf(frames == 0 || frames < assoc_,
            "cache too small for this block size and associativity");
    sets_ = static_cast<std::uint32_t>(frames / assoc_);
    offset_bits_ = log2i(block_);
    index_bits_ = log2i(sets_);
    fatalIf(offset_bits_ + index_bits_ >= 32,
            "cache index leaves no tag bits in a 32-bit address");
}

std::string
sizeLabel(std::uint32_t bytes)
{
    if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0)
        return std::to_string(bytes / (1024 * 1024)) + "M";
    if (bytes >= 1024 && bytes % 1024 == 0)
        return std::to_string(bytes / 1024) + "K";
    return std::to_string(bytes) + "B";
}

std::string
CacheGeometry::name() const
{
    std::string n = sizeLabel(size_) + "-" + std::to_string(block_);
    if (assoc_ != 1)
        n.append(" ").append(std::to_string(assoc_)).append("-way");
    return n;
}

} // namespace mem
} // namespace assoc
