#include "core/kernels.h"

#include <cstdlib>
#include <cstring>
#include <mutex>

#include "core/kernels_inl.h"
#include "util/logging.h"
#include "util/rng.h"

namespace assoc {
namespace core {

namespace {

// ---------------------------------------------------------------
// Scalar reference bodies. These ARE the pre-kernel strategy loops
// (branches and all) and double as the self-check / equivalence
// oracle; keep them boring.
// ---------------------------------------------------------------

std::uint64_t
scalarEqMask(const std::uint32_t *tags, std::uint64_t valid,
             unsigned a, std::uint32_t needle)
{
    std::uint64_t m = 0;
    for (unsigned w = 0; w < a; ++w)
        if (((valid >> w) & 1) != 0 && tags[w] == needle)
            m |= std::uint64_t{1} << w;
    return m;
}

std::uint64_t
scalarPartialMask(const std::uint32_t *tags, std::uint64_t valid,
                  unsigned a, unsigned g,
                  const std::uint32_t *inc_fields, unsigned k,
                  TransformKind kind, const TagTransform &xf)
{
    // The original PartialLookup inner loop: per-way virtual
    // apply() + field() calls, no closed forms. (void)k/kind — the
    // transform object already knows both.
    (void)k;
    (void)kind;
    std::uint64_t m = 0;
    for (unsigned w = 0; w < a; ++w) {
        if (((valid >> w) & 1) == 0)
            continue;
        const unsigned l = w % g; // way w's collection in its subset
        std::uint32_t stored = xf.apply(tags[w], l);
        if (xf.field(stored, l) == inc_fields[l])
            m |= std::uint64_t{1} << w;
    }
    return m;
}

// --------------------- SWAR table bodies -----------------------

std::uint64_t
swarPartialMaskFn(const std::uint32_t *tags, std::uint64_t valid,
                  unsigned a, unsigned g,
                  const std::uint32_t *inc_fields, unsigned k,
                  TransformKind kind, const TagTransform &xf)
{
    (void)xf;
    return kdetail::swarPartialMask(tags, valid, a, g, inc_fields, k,
                                    kind);
}

} // namespace

const LookupKernels &
scalarKernels()
{
    static const LookupKernels k = {
        "scalar",
        scalarEqMask,
        // One relaxed body for both portable tables (kernels_inl.h).
        kdetail::swarEqMaskRelaxed,
        scalarPartialMask,
    };
    return k;
}

const LookupKernels &
swarKernels()
{
    static const LookupKernels k = {
        "swar",
        // A branch-free SWAR equality scan measured slower than this
        // scalar loop at every width (docs/KERNELS.md).
        scalarEqMask,
        kdetail::swarEqMaskRelaxed,
        swarPartialMaskFn,
    };
    return k;
}

/**
 * The AVX2 table, or null when compiled out (-DASSOC_KERNELS_AVX2=OFF,
 * non-x86) or when this CPU lacks AVX2. Defined in kernels_avx2.cc.
 */
const LookupKernels *avx2KernelsOrNull();

std::vector<const LookupKernels *>
registeredKernels()
{
    std::vector<const LookupKernels *> v;
    if (const LookupKernels *avx2 = avx2KernelsOrNull())
        v.push_back(avx2);
    v.push_back(&swarKernels());
    v.push_back(&scalarKernels());
    return v;
}

namespace {

/** One mismatch reason, e.g. "eq_mask mismatch (assoc=13 off=1)". */
void
setWhy(std::string *why, const char *kernel, unsigned a, unsigned off)
{
    if (why == nullptr)
        return;
    *why = std::string(kernel) + " mismatch (assoc=" +
           std::to_string(a) + " off=" + std::to_string(off) + ")";
}

} // namespace

bool
kernelSelfCheck(const LookupKernels &k, std::string *why)
{
    const LookupKernels &ref = scalarKernels();
    if (&k == &ref)
        return true; // the oracle is trivially self-consistent

    SplitMix64 rng(0x5eedc0debadf00dULL);

    // Padded planes so misaligned offsets (vector-unfriendly, still
    // element-aligned) stay in bounds. Duplicated values and a
    // needle drawn from a tiny pool force both match and mismatch
    // lanes in every vector.
    constexpr unsigned kMaxA = 64, kMaxOff = 3;
    std::uint32_t tags[kMaxA + kMaxOff];

    static const unsigned assocs[] = {1, 2, 5, 8, 13, 16, 31, 64};
    static const unsigned offsets[] = {0, 1, 3};

    for (unsigned off : offsets) {
        for (unsigned a : assocs) {
            std::uint32_t pool[4];
            for (std::uint32_t &p : pool)
                p = static_cast<std::uint32_t>(rng.next());
            std::uint32_t *t = tags + off;
            for (unsigned w = 0; w < a; ++w)
                t[w] = pool[rng.next() & 3];
            // Random validity with stray bits above way a (the
            // kernels must ignore them), then an all-invalid set,
            // which must yield mask 0.
            for (std::uint64_t valid : {rng.next(), std::uint64_t{0}}) {
                std::uint32_t needle = pool[rng.next() & 3];
                if (k.eq_mask(t, valid, a, needle) !=
                    ref.eq_mask(t, valid, a, needle)) {
                    setWhy(why, "eq_mask", a, off);
                    return false;
                }
                if (k.eq_mask_relaxed(t, valid, a, needle) !=
                    ref.eq_mask_relaxed(t, valid, a, needle)) {
                    setWhy(why, "eq_mask_relaxed", a, off);
                    return false;
                }
            }
            // A spare draw per geometry: the partial vectors below
            // keep the values every table has been checked against.
            rng.next();
        }
    }

    // Partial-compare smoke vectors: every transform kind at field
    // geometries covering one-field subsets, one subset, several
    // subsets per vector chunk, subsets that straddle chunks,
    // gathered collections (g > 8) and a short last chunk. Tags
    // truncated to t bits; duplicate truncated fields are
    // near-certain with a 4-value pool.
    struct Geo {
        unsigned t, k, g, a;
    };
    static const Geo geos[] = {
        {16, 4, 4, 4},   {16, 4, 4, 16}, {16, 1, 13, 39},
        {12, 3, 4, 12},  {8, 8, 1, 7},   {32, 2, 16, 64},
        {20, 2, 9, 18},  {32, 1, 32, 64}, {16, 2, 6, 30}};
    static const TransformKind kinds[] = {
        TransformKind::None, TransformKind::XorLow,
        TransformKind::Improved, TransformKind::Swap};
    std::uint32_t inc_fields[kMaxA];
    for (const Geo &geo : geos) {
        for (TransformKind kind : kinds) {
            std::unique_ptr<TagTransform> xf =
                TagTransform::make(kind, geo.t, geo.k);
            for (unsigned off : offsets) {
                std::uint32_t pool[4];
                for (std::uint32_t &p : pool)
                    p = static_cast<std::uint32_t>(rng.next()) &
                        static_cast<std::uint32_t>(maskBits(geo.t));
                std::uint32_t *t = tags + off;
                for (unsigned w = 0; w < geo.a; ++w)
                    t[w] = pool[rng.next() & 3];
                const std::uint64_t valid = rng.next();
                std::uint32_t incoming = pool[rng.next() & 3];
                for (unsigned l = 0; l < geo.g; ++l)
                    inc_fields[l] =
                        xf->field(xf->apply(incoming, l), l);
                if (k.partial_mask(t, valid, geo.a, geo.g, inc_fields,
                                   geo.k, kind, *xf) !=
                    ref.partial_mask(t, valid, geo.a, geo.g,
                                     inc_fields, geo.k, kind, *xf)) {
                    if (why != nullptr)
                        *why = std::string("partial_mask mismatch (") +
                               transformKindName(kind) +
                               " t=" + std::to_string(geo.t) +
                               " k=" + std::to_string(geo.k) +
                               " g=" + std::to_string(geo.g) +
                               " a=" + std::to_string(geo.a) +
                               " off=" + std::to_string(off) + ")";
                    return false;
                }
            }
        }
    }
    return true;
}

const LookupKernels &
chooseKernels(const char *env,
              const std::vector<const LookupKernels *> &registered,
              std::string *reason)
{
    std::string note;

    if (env != nullptr && *env != '\0') {
        const LookupKernels *named = nullptr;
        for (const LookupKernels *k : registered)
            if (std::strcmp(k->name, env) == 0) {
                named = k;
                break;
            }
        if (named == nullptr) {
            note = "ASSOC_KERNELS='" + std::string(env) +
                   "' is not registered in this build; ";
        } else {
            std::string why;
            if (kernelSelfCheck(*named, &why)) {
                if (reason != nullptr)
                    *reason = std::string("ASSOC_KERNELS=") +
                              named->name;
                return *named;
            }
            note = std::string("ASSOC_KERNELS=") + named->name +
                   " failed its self-check (" + why + "); ";
        }
    }

    for (const LookupKernels *k : registered) {
        std::string why;
        if (kernelSelfCheck(*k, &why)) {
            if (reason != nullptr)
                *reason = note + std::string(k->name) +
                          (note.empty() ? " selected"
                                        : " selected as fallback");
            return *k;
        }
        note += std::string(k->name) + " failed its self-check (" +
                why + "); ";
    }

    // Unreachable in practice: the scalar oracle always passes.
    if (reason != nullptr)
        *reason = note + "scalar selected as last resort";
    return scalarKernels();
}

namespace {

std::atomic<const LookupKernels *> g_active{nullptr};
std::string g_reason; // written once under g_select_mutex
std::mutex g_select_mutex;

} // namespace

const LookupKernels &
activeKernels()
{
    const LookupKernels *k = g_active.load(std::memory_order_acquire);
    if (k != nullptr)
        return *k;
    std::lock_guard<std::mutex> lock(g_select_mutex);
    k = g_active.load(std::memory_order_relaxed);
    if (k != nullptr)
        return *k;
    std::string reason;
    const LookupKernels &sel = chooseKernels(
        std::getenv("ASSOC_KERNELS"), registeredKernels(), &reason);
    g_reason = reason;
    // A fallback means some candidate failed its smoke vectors —
    // correctness is preserved (the selected table passed), but the
    // build deserves a visible note.
    if (reason.find("failed") != std::string::npos ||
        reason.find("not registered") != std::string::npos)
        warn("kernel dispatch: " + reason);
    g_active.store(&sel, std::memory_order_release);
    return sel;
}

const std::string &
kernelDispatchReason()
{
    activeKernels();
    std::lock_guard<std::mutex> lock(g_select_mutex);
    return g_reason;
}

ScopedKernelOverride::ScopedKernelOverride(const LookupKernels &k)
{
    activeKernels(); // settle the default selection first
    saved_ = g_active.exchange(&k, std::memory_order_acq_rel);
}

ScopedKernelOverride::~ScopedKernelOverride()
{
    g_active.store(saved_, std::memory_order_release);
}

} // namespace core
} // namespace assoc
