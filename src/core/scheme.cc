#include "core/scheme.h"

#include "core/mru_lookup.h"
#include "core/partial_lookup.h"
#include "core/swap_mru_lookup.h"
#include "core/way_memo.h"
#include "core/wide_lookup.h"
#include "util/logging.h"

namespace assoc {
namespace core {

SchemeKind
schemeKindFromString(const std::string &s)
{
    if (s == "traditional")
        return SchemeKind::Traditional;
    if (s == "naive")
        return SchemeKind::Naive;
    if (s == "mru")
        return SchemeKind::Mru;
    if (s == "partial")
        return SchemeKind::Partial;
    if (s == "waymemo")
        return SchemeKind::WayMemo;
    if (s == "waypredict")
        return SchemeKind::WayPredict;
    fatal("unknown scheme '" + s +
          "' (expected traditional|naive|mru|partial|waymemo|"
          "waypredict)");
}

const char *
schemeKindName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::Traditional:
        return "Traditional";
      case SchemeKind::Naive:
        return "Naive";
      case SchemeKind::Mru:
        return "MRU";
      case SchemeKind::Partial:
        return "Partial";
      case SchemeKind::WayMemo:
        return "WayMemo";
      case SchemeKind::WayPredict:
        return "WayPredict";
      case SchemeKind::SwapMru:
        return "SwapMRU";
      case SchemeKind::WideNaive:
        return "WideNaive";
      case SchemeKind::WideMru:
        return "WideMRU";
    }
    return "unknown";
}

SchemeSpec
SchemeSpec::paperPartial(unsigned a, unsigned tag_bits, unsigned min_k)
{
    SchemeSpec spec;
    spec.kind = SchemeKind::Partial;
    spec.tag_bits = tag_bits;
    // The paper's rule (Section 2.2, answer 3): use the fewest
    // subsets that give at least min_k-bit partial compares, then
    // spend the whole tag width: k = floor(t / (a/s)). With 16-bit
    // tags and min_k = 4 this yields 1/2/4 subsets with k = 4 for
    // 4/8/16-way; with 32-bit tags the 4-way cache gets k = 8 and
    // the 8/16-way caches halve their subset counts (Figure 6).
    unsigned s = 1;
    while (s < a && tag_bits / (a / s) < min_k)
        s *= 2;
    fatalIf(tag_bits / (a / s) < 1,
            "tag width " + std::to_string(tag_bits) +
                " cannot support partial compares at associativity " +
                std::to_string(a));
    fatalIf(tag_bits / (a / s) < min_k,
            "no feasible subset count gives " +
                std::to_string(min_k) + "-bit compares with t=" +
                std::to_string(tag_bits));
    spec.partial_subsets = s;
    spec.partial_k = tag_bits / (a / s);
    return spec;
}

std::unique_ptr<LookupStrategy>
SchemeSpec::makeStrategy() const
{
    switch (kind) {
      case SchemeKind::Traditional:
        return std::make_unique<TraditionalLookup>();
      case SchemeKind::Naive:
        return std::make_unique<NaiveLookup>();
      case SchemeKind::Mru:
        return std::make_unique<MruLookup>(mru_list_len);
      case SchemeKind::Partial: {
        PartialConfig cfg;
        cfg.tag_bits = tag_bits;
        cfg.field_bits = partial_k;
        cfg.subsets = partial_subsets;
        cfg.transform = transform;
        return std::make_unique<PartialLookup>(cfg);
      }
      case SchemeKind::WayMemo: {
        fatalIf(memo_underlying == SchemeKind::WayMemo ||
                    memo_underlying == SchemeKind::WayPredict,
                "waymemo cannot wrap another memo scheme");
        SchemeSpec inner = *this;
        inner.kind = memo_underlying;
        WayMemoConfig cfg;
        cfg.entries = memo_entries;
        cfg.region_bits = memo_region_bits;
        cfg.tagged = memo_tagged;
        return std::make_unique<WayMemoLookup>(inner.makeStrategy(),
                                               cfg);
      }
      case SchemeKind::WayPredict:
        return std::make_unique<WayPredictLookup>();
      case SchemeKind::SwapMru:
        return std::make_unique<SwapMruLookup>();
      case SchemeKind::WideNaive:
        return std::make_unique<WideNaiveLookup>(width);
      case SchemeKind::WideMru:
        return std::make_unique<WideMruLookup>(width);
    }
    panic("bad SchemeKind");
}

std::unique_ptr<ProbeMeter>
SchemeSpec::makeMeter(bool wb_optimization) const
{
    MeterConfig mcfg;
    mcfg.tag_bits = tag_bits;
    mcfg.wb_optimization = wb_optimization;
    return std::make_unique<ProbeMeter>(makeStrategy(), mcfg);
}

} // namespace core
} // namespace assoc
