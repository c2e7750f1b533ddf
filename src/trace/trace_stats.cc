#include "trace/trace_stats.h"

#include "util/bitops.h"
#include "util/logging.h"
#include "util/table.h"

namespace assoc {
namespace trace {

double
TraceStats::readFraction() const
{
    return refs == 0 ? 0.0 : static_cast<double>(reads) / refs;
}

double
TraceStats::writeFraction() const
{
    return refs == 0 ? 0.0 : static_cast<double>(writes) / refs;
}

double
TraceStats::ifetchFraction() const
{
    return refs == 0 ? 0.0 : static_cast<double>(ifetches) / refs;
}

std::uint64_t
TraceStats::footprintBytes() const
{
    return footprint_blocks * block_bytes;
}

void
TraceStats::print(std::ostream &os) const
{
    TextTable t;
    t.setHeader({"metric", "value"});
    t.addRow({"references", TextTable::num(refs)});
    t.addRow({"reads", TextTable::num(reads) + "  (" +
              TextTable::num(100.0 * readFraction(), 1) + "%)"});
    t.addRow({"writes", TextTable::num(writes) + "  (" +
              TextTable::num(100.0 * writeFraction(), 1) + "%)"});
    t.addRow({"ifetches", TextTable::num(ifetches) + "  (" +
              TextTable::num(100.0 * ifetchFraction(), 1) + "%)"});
    t.addRow({"flush markers", TextTable::num(flushes)});
    t.addRow({"footprint", TextTable::num(footprintBytes() / 1024) +
              " KB (" + TextTable::num(footprint_blocks) + " x " +
              TextTable::num(std::uint64_t{block_bytes}) + "B blocks)"});
    for (const auto &[pid, n] : per_pid) {
        t.addRow({"pid " + std::to_string(pid) + " refs",
                  TextTable::num(n)});
    }
    t.print(os);
}

namespace {

/** Fold one reference into @p s and @p blocks. */
void
accumulate(TraceStats &s, std::unordered_set<std::uint64_t> &blocks,
           const MemRef &r, unsigned shift)
{
    ++s.refs;
    ++s.per_pid[r.pid];
    switch (r.type) {
      case RefType::Read:
        ++s.reads;
        break;
      case RefType::Write:
        ++s.writes;
        break;
      case RefType::Ifetch:
        ++s.ifetches;
        break;
      case RefType::Flush:
        break;
    }
    blocks.insert(static_cast<std::uint64_t>(r.addr) >> shift);
}

} // namespace

TraceStats
collectStats(TraceSource &src, unsigned block_bytes,
             std::vector<TraceStats> *segments)
{
    fatalIf(!isPow2(block_bytes), "collectStats: block size not pow2");
    const unsigned shift = log2i(block_bytes);

    // A segment's footprint cannot be summed into the whole trace's,
    // so each keeps its own block set.
    TraceStats whole, seg;
    whole.block_bytes = seg.block_bytes = block_bytes;
    std::unordered_set<std::uint64_t> blocks, seg_blocks;
    auto finishSegment = [&]() {
        seg.footprint_blocks = seg_blocks.size();
        segments->push_back(seg);
        seg = TraceStats{};
        seg.block_bytes = block_bytes;
        seg_blocks.clear();
    };
    if (segments)
        segments->clear();

    MemRef r;
    src.reset();
    while (src.next(r)) {
        if (r.isFlush()) {
            ++whole.flushes;
            if (segments) {
                ++seg.flushes;
                finishSegment();
            }
            continue;
        }
        accumulate(whole, blocks, r, shift);
        if (segments)
            accumulate(seg, seg_blocks, r, shift);
    }
    whole.footprint_blocks = blocks.size();
    if (segments && (seg.refs != 0 || segments->empty()))
        finishSegment();
    return whole;
}

} // namespace trace
} // namespace assoc
