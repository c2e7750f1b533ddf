/**
 * @file
 * AVX2 kernel table (x86-64).
 *
 * Compiled into every x86-64 build via function-level target
 * attributes — no -mavx2 flag needed, so a -march=x86-64 binary
 * still carries these bodies and selects them only when CPUID
 * reports AVX2 at runtime (avx2KernelsOrNull()). Configure with
 * -DASSOC_KERNELS_AVX2=OFF to compile them out entirely (the
 * no-AVX2 CI job, exotic toolchains).
 *
 * Layout: eq_mask runs 8-lane AVX2 chunks, then a 4-lane SSE chunk,
 * then a scalar tail; partial_mask runs 8-lane chunks over the whole
 * set, the last one through masked loads, with the closed forms of
 * kernels_inl.h vectorized per lane. Tag-equality lanes become
 * bitmasks via movemask on the 32-bit compare results; validity
 * arrives as the set's word and is ANDed onto the finished mask.
 */

#include "core/kernels.h"

#if defined(__x86_64__) && !defined(ASSOC_NO_AVX2_KERNELS)

#include <immintrin.h>

#include <array>

#include "core/kernels_inl.h"

#if defined(__SANITIZE_THREAD__)
#define ASSOC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ASSOC_TSAN 1
#endif
#endif

namespace assoc {
namespace core {
namespace {

/** Tag-equality bits for 8 lanes. */
__attribute__((target("avx2"))) inline unsigned
eqTags8(const std::uint32_t *tags, __m256i vneedle)
{
    __m256i t = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(tags));
    return static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(t, vneedle))));
}

/** 4-lane SSE variant (the 4..7-way tail, and 4-way sets). */
inline unsigned
eqTags4(const std::uint32_t *tags, __m128i vneedle4)
{
    __m128i t = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(tags));
    return static_cast<unsigned>(_mm_movemask_ps(
        _mm_castsi128_ps(_mm_cmpeq_epi32(t, vneedle4))));
}

__attribute__((target("avx2"))) std::uint64_t
avx2EqMask(const std::uint32_t *tags, std::uint64_t valid, unsigned a,
           std::uint32_t needle)
{
    std::uint64_t m = 0;
    unsigned w = 0;
    if (a >= 8) {
        const __m256i vneedle =
            _mm256_set1_epi32(static_cast<int>(needle));
        for (; w + 8 <= a; w += 8)
            m |= static_cast<std::uint64_t>(eqTags8(tags + w, vneedle))
                 << w;
    }
    if (w + 4 <= a) {
        m |= static_cast<std::uint64_t>(
                 eqTags4(tags + w,
                         _mm_set1_epi32(static_cast<int>(needle))))
             << w;
        w += 4;
    }
    for (; w < a; ++w)
        m |= static_cast<std::uint64_t>(tags[w] == needle) << w;
    return m & valid & maskBits(a);
}

__attribute__((target("avx2"))) std::uint64_t
avx2EqMaskRelaxed(const std::uint32_t *tags, std::uint64_t valid,
                  unsigned a, std::uint32_t needle)
{
#if defined(ASSOC_TSAN)
    // Under ThreadSanitizer the racing element loads must be
    // visible to the checker as relaxed atomics; take the SWAR body
    // (bit-identical, just not vectorized).
    return kdetail::swarEqMaskRelaxed(tags, valid, a, needle);
#else
    // Plain vector loads: individual elements may tear against a
    // per-set-serialized writer, but any torn view is discarded by
    // the caller's seqlock validation (mem/cache.h concurrency
    // contract), and a 32-bit plane element never tears on x86.
    return avx2EqMask(tags, valid, a, needle);
#endif
}

/**
 * The collection each lane of a set's first 8-way chunk reads (lane
 * i: i mod g) and how far every later chunk moves it (8 mod g), for
 * each subset width g up to 64.
 */
struct alignas(32) ChunkCollections
{
    std::int32_t first[8];
    std::int32_t step;
};

constexpr std::array<ChunkCollections, 65> kChunkCollections = [] {
    std::array<ChunkCollections, 65> table{};
    for (unsigned g = 1; g <= 64; ++g) {
        unsigned l = 0;
        for (unsigned i = 0; i < 8; ++i) {
            table[g].first[i] = static_cast<std::int32_t>(l);
            if (++l == g)
                l = 0;
        }
        table[g].step = static_cast<std::int32_t>(l);
    }
    return table;
}();

/** partialStoredField for 8 lanes: lane i reads collection idx[i]
 *  of tag t[i]. */
__attribute__((target("avx2"))) inline __m256i
partialFields8(__m256i t, __m256i idx, __m256i vk, __m256i vmask,
               TransformKind kind)
{
    if (kind == TransformKind::Swap) {
        // Collection l of way l is always raw field 0.
        return _mm256_and_si256(t, vmask);
    }
    __m256i shifted = _mm256_srlv_epi32(t, _mm256_mullo_epi32(idx, vk));
    __m256i xsel = _mm256_setzero_si256();
    const __m256i is0 = _mm256_cmpeq_epi32(idx, _mm256_setzero_si256());
    if (kind == TransformKind::XorLow) {
        // xsel = tag for lanes with l >= 1, 0 for l == 0.
        xsel = _mm256_andnot_si256(is0, t);
    } else if (kind == TransformKind::Improved) {
        // l == 0 -> 0, l == 1 -> tag, l >= 2 -> tag ^ (tag >> k).
        __m256i hi = _mm256_xor_si256(t, _mm256_srlv_epi32(t, vk));
        __m256i is1 = _mm256_cmpeq_epi32(idx, _mm256_set1_epi32(1));
        xsel = _mm256_andnot_si256(is0, _mm256_blendv_epi8(hi, t, is1));
    }
    return _mm256_and_si256(_mm256_xor_si256(shifted, xsel), vmask);
}

__attribute__((target("avx2"))) std::uint64_t
avx2PartialMask(const std::uint32_t *tags, std::uint64_t valid,
                unsigned a, unsigned g, const std::uint32_t *inc_fields,
                unsigned k, TransformKind kind, const TagTransform &xf)
{
    (void)xf;
    const __m256i lane_idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i vk = _mm256_set1_epi32(static_cast<int>(k));
    const __m256i vmask = _mm256_set1_epi32(
        static_cast<int>(static_cast<std::uint32_t>(maskBits(k))));
    const __m256i vg = _mm256_set1_epi32(static_cast<int>(g));
    const __m256i vlast = _mm256_set1_epi32(static_cast<int>(g) - 1);
    const ChunkCollections &cc = kChunkCollections[g];
    const __m256i vstep = _mm256_set1_epi32(cc.step);
    __m256i idx = _mm256_load_si256(
        reinterpret_cast<const __m256i *>(cc.first));
    // Up to 8 collections fit one register, which each chunk
    // permutes into lane order; wider subsets gather. Masked loads
    // read no collection past g and no way past a.
    const int *inc = reinterpret_cast<const int *>(inc_fields);
    const __m256i inc8 =
        g <= 8 ? _mm256_maskload_epi32(inc,
                                       _mm256_cmpgt_epi32(vg, lane_idx))
               : _mm256_setzero_si256();
    std::uint64_t m = 0;
    for (unsigned w = 0; w < a; w += 8) {
        const int *at = reinterpret_cast<const int *>(tags + w);
        const __m256i t =
            w + 8 <= a
                ? _mm256_loadu_si256(reinterpret_cast<const __m256i *>(at))
                : _mm256_maskload_epi32(
                      at, _mm256_cmpgt_epi32(
                              _mm256_set1_epi32(static_cast<int>(a - w)),
                              lane_idx));
        const __m256i want =
            g <= 8 ? _mm256_permutevar8x32_epi32(inc8, idx)
                   : _mm256_i32gather_epi32(inc, idx, 4);
        const unsigned eq = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(
                partialFields8(t, idx, vk, vmask, kind), want))));
        m |= static_cast<std::uint64_t>(eq) << w;
        // The next chunk's collections: idx + 8 mod g, one
        // conditional subtract since both terms are below g.
        idx = _mm256_add_epi32(idx, vstep);
        idx = _mm256_sub_epi32(
            idx, _mm256_and_si256(_mm256_cmpgt_epi32(idx, vlast), vg));
    }
    return m & valid & maskBits(a);
}

} // namespace

const LookupKernels *
avx2KernelsOrNull()
{
    if (!__builtin_cpu_supports("avx2"))
        return nullptr;
    static const LookupKernels k = {
        "avx2",
        avx2EqMask,
        avx2EqMaskRelaxed,
        avx2PartialMask,
    };
    return &k;
}

} // namespace core
} // namespace assoc

#else // !x86-64 or ASSOC_NO_AVX2_KERNELS

namespace assoc {
namespace core {

const LookupKernels *
avx2KernelsOrNull()
{
    return nullptr;
}

} // namespace core
} // namespace assoc

#endif
