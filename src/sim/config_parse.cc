#include "sim/config_parse.h"

#include <algorithm>
#include <cctype>

#include "util/logging.h"

namespace assoc {
namespace sim {

namespace {

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find(sep, start);
        if (end == std::string::npos) {
            out.push_back(text.substr(start));
            break;
        }
        out.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

std::uint32_t
parseUnsigned(const std::string &text, const std::string &what)
{
    fatalIf(text.empty(), what + ": empty number");
    std::uint64_t v = 0;
    for (char c : text) {
        fatalIf(!std::isdigit(static_cast<unsigned char>(c)),
                what + ": '" + text + "' is not a number");
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
        fatalIf(v > 0xffffffffull, what + ": '" + text +
                "' is out of range");
    }
    return static_cast<std::uint32_t>(v);
}

} // namespace

std::uint32_t
parseSize(const std::string &text)
{
    fatalIf(text.empty(), "empty size");
    std::string body = text;
    std::uint32_t scale = 1;
    char last = static_cast<char>(
        std::toupper(static_cast<unsigned char>(body.back())));
    if (last == 'K') {
        scale = 1024;
        body.pop_back();
    } else if (last == 'M') {
        scale = 1024 * 1024;
        body.pop_back();
    }
    std::uint32_t n = parseUnsigned(body, "size");
    fatalIf(n > 0xffffffffu / scale, "size '" + text +
            "' is out of range");
    return n * scale;
}

mem::CacheGeometry
parseCacheSpec(const std::string &spec)
{
    // SIZE-BLOCK[:ASSOC]
    auto colon = split(spec, ':');
    fatalIf(colon.empty() || colon.size() > 2,
            "bad cache spec '" + spec + "' (want SIZE-BLOCK[:ASSOC])");
    std::uint32_t assoc =
        colon.size() == 2 ? parseUnsigned(colon[1], "associativity")
                          : 1;
    auto dash = split(colon[0], '-');
    fatalIf(dash.size() != 2,
            "bad cache spec '" + spec + "' (want SIZE-BLOCK[:ASSOC])");
    return mem::CacheGeometry(parseSize(dash[0]),
                              parseUnsigned(dash[1], "block size"),
                              assoc);
}

std::vector<core::SchemeSpec>
parseSchemeList(const std::string &list, unsigned assoc,
                unsigned tag_bits)
{
    std::vector<core::SchemeSpec> out;
    for (const std::string &token : split(list, ',')) {
        if (token.empty())
            continue;
        // Options inside a token use ';' (e.g. partial:k=4;s=2) so
        // ',' stays the list separator.
        core::SchemeSpec parsed;
        parsed.tag_bits = tag_bits;

        auto parts = split(token, ':');
        const std::string &name = parts[0];
        if (name == "traditional") {
            parsed.kind = core::SchemeKind::Traditional;
        } else if (name == "naive") {
            parsed.kind = core::SchemeKind::Naive;
        } else if (name == "mru") {
            parsed.kind = core::SchemeKind::Mru;
            if (parts.size() == 2)
                parsed.mru_list_len =
                    parseUnsigned(parts[1], "MRU list length");
        } else if (name == "swapmru") {
            parsed.kind = core::SchemeKind::SwapMru;
        } else if (name == "widenaive" || name == "widemru") {
            fatalIf(parts.size() != 2,
                    name + " needs a width, e.g. " + name + ":2");
            parsed.kind = name == "widenaive"
                              ? core::SchemeKind::WideNaive
                              : core::SchemeKind::WideMru;
            parsed.width = parseUnsigned(parts[1], "tag-memory width");
        } else if (name == "partial") {
            parsed = core::SchemeSpec::paperPartial(assoc, tag_bits);
            if (parts.size() == 2) {
                for (const std::string &opt : split(parts[1], ';')) {
                    auto kv = split(opt, '=');
                    fatalIf(kv.size() != 2,
                            "bad partial option '" + opt + "'");
                    if (kv[0] == "k") {
                        parsed.partial_k = parseUnsigned(kv[1], "k");
                    } else if (kv[0] == "s") {
                        parsed.partial_subsets =
                            parseUnsigned(kv[1], "subsets");
                    } else if (kv[0] == "tr") {
                        parsed.transform =
                            core::transformKindFromString(kv[1]);
                    } else {
                        fatal("unknown partial option '" + kv[0] +
                              "' (k, s or tr)");
                    }
                }
            }
        } else if (name == "waypredict") {
            parsed.kind = core::SchemeKind::WayPredict;
        } else if (name == "waymemo") {
            parsed.kind = core::SchemeKind::WayMemo;
            if (parts.size() == 2) {
                for (const std::string &opt : split(parts[1], ';')) {
                    auto kv = split(opt, '=');
                    fatalIf(kv.size() != 2,
                            "bad waymemo option '" + opt + "'");
                    if (kv[0] == "e") {
                        parsed.memo_entries =
                            parseUnsigned(kv[1], "memo entries");
                    } else if (kv[0] == "r") {
                        parsed.memo_region_bits =
                            parseUnsigned(kv[1], "memo region bits");
                    } else if (kv[0] == "tag") {
                        fatalIf(kv[1] != "0" && kv[1] != "1",
                                "memo tag option must be 0 or 1");
                        parsed.memo_tagged = kv[1] == "1";
                    } else if (kv[0] == "u") {
                        core::SchemeKind under =
                            core::schemeKindFromString(kv[1]);
                        fatalIf(under == core::SchemeKind::WayMemo ||
                                    under ==
                                        core::SchemeKind::WayPredict,
                                "waymemo cannot wrap another memo "
                                "scheme");
                        parsed.memo_underlying = under;
                    } else {
                        fatal("unknown waymemo option '" + kv[0] +
                              "' (e, r, tag or u)");
                    }
                }
            }
            if (parsed.memo_underlying == core::SchemeKind::Partial) {
                core::SchemeSpec p =
                    core::SchemeSpec::paperPartial(assoc, tag_bits);
                parsed.partial_k = p.partial_k;
                parsed.partial_subsets = p.partial_subsets;
                parsed.transform = p.transform;
            }
        } else {
            fatal("unknown scheme '" + name +
                  "' (traditional|naive|mru[:len]|swapmru|"
                  "widenaive:<b>|widemru:<b>|partial[:opts]|"
                  "waypredict|waymemo[:opts])");
        }
        out.push_back(std::move(parsed));
    }
    fatalIf(out.empty(), "empty scheme list");
    return out;
}

mem::ReplPolicy
parseReplPolicy(const std::string &text)
{
    if (text == "lru")
        return mem::ReplPolicy::Lru;
    if (text == "fifo")
        return mem::ReplPolicy::Fifo;
    if (text == "random")
        return mem::ReplPolicy::Random;
    fatal("unknown replacement policy '" + text +
          "' (lru|fifo|random)");
}

} // namespace sim
} // namespace assoc
