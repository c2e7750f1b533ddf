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
 * 32-bit compare results; validity bytes become bitmasks via a
 * zero-compare + movemask on the byte lanes.
 */

#include "core/kernels.h"

#if defined(__x86_64__) && !defined(ASSOC_NO_AVX2_KERNELS)

#include <immintrin.h>

#include <cstring>

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

/** Bits w..w+7 of the eq/valid mask for 8 tag lanes at @p tags and
 *  8 validity bytes at @p valid. */
__attribute__((target("avx2"))) inline unsigned
eq8(const std::uint32_t *tags, const std::uint8_t *valid,
    __m256i vneedle)
{
    __m256i t = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(tags));
    unsigned eq = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(t, vneedle))));
    __m128i v = _mm_loadl_epi64(
        reinterpret_cast<const __m128i *>(valid));
    unsigned inv = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_setzero_si128())));
    return eq & ~inv & 0xffu;
}

/** 4-lane SSE variant (associativity 4..7 tails, assoc-4 sets). */
inline unsigned
eq4(const std::uint32_t *tags, const std::uint8_t *valid,
    __m128i vneedle4)
{
    __m128i t = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(tags));
    unsigned eq = static_cast<unsigned>(_mm_movemask_ps(
        _mm_castsi128_ps(_mm_cmpeq_epi32(t, vneedle4))));
    std::uint32_t vword;
    std::memcpy(&vword, valid, 4);
    __m128i v = _mm_cvtsi32_si128(static_cast<int>(vword));
    unsigned inv = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_setzero_si128())));
    return eq & ~inv & 0xfu;
}

__attribute__((target("avx2"))) std::uint64_t
avx2EqMask(const std::uint32_t *tags, const std::uint8_t *valid,
           unsigned a, std::uint32_t needle)
{
    std::uint64_t m = 0;
    unsigned w = 0;
    if (a >= 8) {
        const __m256i vneedle =
            _mm256_set1_epi32(static_cast<int>(needle));
        for (; w + 8 <= a; w += 8)
            m |= static_cast<std::uint64_t>(
                     eq8(tags + w, valid + w, vneedle))
                 << w;
    }
    if (w + 4 <= a) {
        m |= static_cast<std::uint64_t>(
                 eq4(tags + w, valid + w,
                     _mm_set1_epi32(static_cast<int>(needle))))
             << w;
        w += 4;
    }
    for (; w < a; ++w)
        m |= static_cast<std::uint64_t>(
                 static_cast<unsigned>(valid[w] != 0) &
                 static_cast<unsigned>(tags[w] == needle))
             << w;
    return m;
}

/** Tag-equality bits for 8 lanes (no validity plane). */
__attribute__((target("avx2"))) inline unsigned
eqTags8(const std::uint32_t *vals, __m256i vneedle)
{
    __m256i t = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(vals));
    return static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(t, vneedle))));
}

inline unsigned
eqTags4(const std::uint32_t *vals, __m128i vneedle4)
{
    __m128i t = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(vals));
    return static_cast<unsigned>(_mm_movemask_ps(
        _mm_castsi128_ps(_mm_cmpeq_epi32(t, vneedle4))));
}

__attribute__((target("avx2"))) std::uint64_t
avx2EqMaskBits(const std::uint32_t *vals, std::uint64_t valid_bits,
               unsigned a, std::uint32_t needle)
{
    std::uint64_t m = 0;
    unsigned w = 0;
    if (a >= 8) {
        const __m256i vneedle =
            _mm256_set1_epi32(static_cast<int>(needle));
        for (; w + 8 <= a; w += 8)
            m |= static_cast<std::uint64_t>(eqTags8(vals + w, vneedle))
                 << w;
    }
    if (w + 4 <= a) {
        m |= static_cast<std::uint64_t>(
                 eqTags4(vals + w,
                         _mm_set1_epi32(static_cast<int>(needle))))
             << w;
        w += 4;
    }
    for (; w < a; ++w)
        m |= static_cast<std::uint64_t>(vals[w] == needle) << w;
    return m & valid_bits & maskBits(a);
}

__attribute__((target("avx2"))) std::uint64_t
avx2EqMaskBitsRelaxed(const std::uint32_t *vals,
                      std::uint64_t valid_bits, unsigned a,
                      std::uint32_t needle)
{
#if defined(ASSOC_TSAN)
    // Under ThreadSanitizer the racing element loads must be
    // visible to the checker as relaxed atomics; take the SWAR body
    // (bit-identical, just not vectorized).
    return kdetail::swarEqMaskBitsRelaxed(vals, valid_bits, a, needle);
#else
    // Plain vector loads: individual elements may tear against a
    // per-set-serialized writer, but any torn view is discarded by
    // the caller's seqlock validation (mem/cache.h concurrency
    // contract), and a 32-bit plane element never tears on x86.
    return avx2EqMaskBits(vals, valid_bits, a, needle);
#endif
}

__attribute__((target("avx2"))) std::uint64_t
avx2PartialMask(const std::uint32_t *tags, const std::uint8_t *valid,
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
            __m128i v = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(valid + l));
            unsigned inv = static_cast<unsigned>(_mm_movemask_epi8(
                _mm_cmpeq_epi8(v, _mm_setzero_si128())));
            m |= static_cast<std::uint64_t>(eq & ~inv & 0xffu) << l;
        }
    }
    for (; l < g; ++l)
        m |= static_cast<std::uint64_t>(
                 static_cast<unsigned>(valid[l] != 0) &
                 static_cast<unsigned>(
                     kdetail::partialStoredField(tags[l], l, k, kind) ==
                     inc_fields[l]))
             << l;
    return m;
}

void
avx2ExpandBits(std::uint64_t bits, unsigned n, std::uint8_t *out)
{
    // At most 64 bytes: the SWAR multiply spread is already one store
    // per 8 ways; a vector version would not pay for its setup.
    kdetail::swarExpandBits(bits, n, out);
}

void
avx2ExpandNibbles(std::uint64_t word, unsigned n, std::uint8_t *out)
{
    kdetail::swarExpandNibbles(word, n, out);
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
        avx2EqMaskBits,
        avx2EqMaskBitsRelaxed,
        avx2PartialMask,
        avx2ExpandBits,
        avx2ExpandNibbles,
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
