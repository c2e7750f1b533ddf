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
 * Layout per kernel: 8-lane AVX2 chunks, then a 4-lane SSE chunk,
 * then the shared scalar-tail bodies from kernels_inl.h — tails and
 * chunks must agree bit-for-bit, so the tail is never reimplemented
 * here. Tag-equality lanes become bitmasks via movemask on the
 * 32-bit compare results; validity arrives as the set's word and is
 * ANDed onto the finished mask.
 */

#include "core/kernels.h"

#if defined(__x86_64__) && !defined(ASSOC_NO_AVX2_KERNELS)

#include <immintrin.h>

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

__attribute__((target("avx2"))) std::uint64_t
avx2PartialMask(const std::uint32_t *tags, std::uint64_t valid,
                unsigned g, const std::uint32_t *inc_fields,
                unsigned k, TransformKind kind, const TagTransform &xf)
{
    (void)xf;
    std::uint64_t m = 0;
    unsigned l = 0;
    if (g >= 8) {
        const __m256i vmask = _mm256_set1_epi32(
            static_cast<int>(static_cast<std::uint32_t>(maskBits(k))));
        const __m256i vk = _mm256_set1_epi32(static_cast<int>(k));
        const __m256i lane_idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5,
                                                   6, 7);
        for (; l + 8 <= g; l += 8) {
            __m256i t = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(tags + l));
            __m256i idx = _mm256_add_epi32(
                _mm256_set1_epi32(static_cast<int>(l)), lane_idx);
            __m256i fieldv;
            if (kind == TransformKind::Swap) {
                // Collection l of way l is always raw field 0.
                fieldv = _mm256_and_si256(t, vmask);
            } else {
                __m256i shifted = _mm256_srlv_epi32(
                    t, _mm256_mullo_epi32(idx, vk));
                __m256i xsel = _mm256_setzero_si256();
                if (kind == TransformKind::XorLow) {
                    // xsel = tag for lanes with l >= 1, 0 for l == 0.
                    __m256i is0 = _mm256_cmpeq_epi32(
                        idx, _mm256_setzero_si256());
                    xsel = _mm256_andnot_si256(is0, t);
                } else if (kind == TransformKind::Improved) {
                    // l == 0 -> 0, l == 1 -> tag, l >= 2 ->
                    // tag ^ (tag >> k).
                    __m256i hi = _mm256_xor_si256(
                        t, _mm256_srlv_epi32(t, vk));
                    __m256i is1 = _mm256_cmpeq_epi32(
                        idx, _mm256_set1_epi32(1));
                    __m256i is0 = _mm256_cmpeq_epi32(
                        idx, _mm256_setzero_si256());
                    xsel = _mm256_blendv_epi8(hi, t, is1);
                    xsel = _mm256_andnot_si256(is0, xsel);
                }
                fieldv = _mm256_and_si256(
                    _mm256_xor_si256(shifted, xsel), vmask);
            }
            __m256i inc = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(inc_fields + l));
            unsigned eq = static_cast<unsigned>(_mm256_movemask_ps(
                _mm256_castsi256_ps(_mm256_cmpeq_epi32(fieldv, inc))));
            m |= static_cast<std::uint64_t>(eq) << l;
        }
    }
    for (; l < g; ++l)
        m |= static_cast<std::uint64_t>(
                 kdetail::partialStoredField(tags[l], l, k, kind) ==
                 inc_fields[l])
             << l;
    return m & valid & maskBits(g);
}

__attribute__((target("avx2"))) void
avx2ShiftTags(const std::uint32_t *in, unsigned n, unsigned shift,
              std::uint32_t *out)
{
    unsigned i = 0;
    const __m128i vcount =
        _mm_cvtsi32_si128(static_cast<int>(shift));
    for (; i + 8 <= n; i += 8) {
        __m256i t = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(in + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i),
                            _mm256_srl_epi32(t, vcount));
    }
    for (; i < n; ++i)
        out[i] = in[i] >> shift;
}

} // namespace

const LookupKernels *
avx2KernelsOrNull()
{
    if (!__builtin_cpu_supports("avx2"))
        return nullptr;
    static const LookupKernels k = {
        KernelIsa::Avx2,
        "avx2",
        avx2EqMask,
        avx2EqMaskRelaxed,
        avx2PartialMask,
        kdetail::swarExpandNibbles,
        avx2ShiftTags,
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
