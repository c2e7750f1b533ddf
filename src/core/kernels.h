/**
 * @file
 * Vectorized lookup kernels with runtime ISA dispatch.
 *
 * The paper's partial-compare step 1 — compare a k-bit field of all
 * a stored tags against the incoming tag — is naturally
 * data-parallel, and the SoA planes (a contiguous tag plane and one
 * validity word per set, see mem/cache.h) were laid out to feed
 * exactly that. This module packages the data-parallel inner loops
 * of every lookup scheme as *kernels*: small non-virtual functions
 * over a tag plane and its set's validity word that return per-way
 * bitmasks (bit w = way w). A table holds the three tag compares the
 * paper's schemes differ in and nothing else: decoding a set for an
 * observer (mem/hierarchy.h) is plain code in mem and core. Validity
 * is one word from the cache to every kernel; no kernel reads a
 * per-way valid byte.
 *
 * Several implementations of the same kernel table are registered:
 *
 *  - scalar  — straight loops, the reference implementation; uses
 *              the TagTransform virtuals exactly like the original
 *              strategy code, so it *is* the old behavior.
 *  - swar    — portable branch-free loops on 64-bit words; no
 *              intrinsics, auto-vectorizable, works everywhere.
 *  - avx2    — 8-way AVX2 intrinsics (x86-64; compiled behind a
 *              function target attribute, selected only when CPUID
 *              reports AVX2 at runtime).
 *
 * activeKernels() picks the best registered table at first use:
 * explicit ASSOC_KERNELS=<name> override, else avx2 > swar > scalar.
 * Every candidate must pass kernelSelfCheck() — a smoke
 * vector sweep (including misaligned plane offsets) compared against
 * the scalar reference — before it may be selected; a failing
 * candidate is skipped with a warn()ed reason instead of crashing,
 * falling back to the next table in the chain (docs/KERNELS.md).
 *
 * Every kernel is bit-identical to the scalar reference by contract:
 * the tests/kernels suite enforces equivalence exhaustively and by
 * randomized fuzzing, and the goldens / fuzz digests downstream
 * must not move when the dispatch choice changes.
 *
 * Masks are std::uint64_t, so kernels cover at most 64 ways: the
 * widest cache (mem::kMaxAssoc), so no caller keeps a scalar path.
 */

#ifndef ASSOC_CORE_KERNELS_H
#define ASSOC_CORE_KERNELS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/transform.h"

namespace assoc {
namespace core {

/**
 * One implementation of the kernel set. All functions are
 * free-standing (no captured state) so a table is just function
 * pointers; none may assume plane alignment beyond the element
 * type's own (the self-check probes misaligned offsets).
 */
struct LookupKernels
{
    /** "scalar", "swar" or "avx2": what ASSOC_KERNELS names. */
    const char *name = "scalar";

    /**
     * Bit w set iff bit w of @p valid is set and tags[w] == needle,
     * for w < a (a at most 64). The one tag-equality kernel: behind
     * WriteBackCache::findWay, and run once per core::LookupInput,
     * whose eq mask the way-order scan (Traditional, Naive,
     * WideNaive), the recency-order scan (MRU, WideMRU, SwapMRU),
     * WayPredict and Partial's step 2 each walk in their own order.
     * @p valid is the set's validity word as the cache keeps it
     * (bit w = way w).
     */
    std::uint64_t (*eq_mask)(const std::uint32_t *tags,
                             std::uint64_t valid, unsigned a,
                             std::uint32_t needle);

    /**
     * eq_mask for the seqlock's optimistic read path: element
     * loads may race per-set-serialized writers, so they must be
     * torn-read tolerant. Scalar/SWAR bodies load each element
     * through a relaxed std::atomic_ref; the AVX2 body uses plain
     * vector loads (element tearing is discarded by the caller's
     * seqlock validation) except under ThreadSanitizer, where it
     * routes to the SWAR body so the formal data-race checker sees
     * only relaxed atomics (see docs/KERNELS.md).
     */
    std::uint64_t (*eq_mask_relaxed)(const std::uint32_t *tags,
                                     std::uint64_t valid, unsigned a,
                                     std::uint32_t needle);

    /**
     * Partial-compare step 1 of every subset of a set at once
     * (Section 2.2): the a ways form a/g subsets of g ways (g
     * divides a), and way w reads collection l = w mod g of its
     * subset. Bit w set iff bit w of @p valid is set and field l of
     * the transformed stored tag tags[w] equals inc_fields[l], for
     * w < a (a at most 64); bits of @p valid at and above a are
     * ignored. The caller precomputes inc_fields[l] =
     * xf.field(xf.apply(incoming, l), l) for l < g once per lookup;
     * the stored side is evaluated per way inside the kernel (the
     * vector bodies use closed forms of the four transforms, the
     * scalar body calls @p xf exactly like the original strategy).
     *
     * @param k    field width in bits (xf.fieldBits()).
     * @param kind transform kind (selects the closed form).
     * @param xf   the strategy's transform (reference body only).
     */
    std::uint64_t (*partial_mask)(const std::uint32_t *tags,
                                  std::uint64_t valid, unsigned a,
                                  unsigned g,
                                  const std::uint32_t *inc_fields,
                                  unsigned k, TransformKind kind,
                                  const TagTransform &xf);
};

/** The reference table (always available, never self-check gated). */
const LookupKernels &scalarKernels();

/** The portable branch-free table (always available). */
const LookupKernels &swarKernels();

/**
 * Every table compiled into this binary, in dispatch-preference
 * order (vector ISAs first, scalar last). AVX2 appears when it was
 * compiled in *and* CPUID reports support.
 */
std::vector<const LookupKernels *> registeredKernels();

/**
 * Run the smoke-vector equivalence sweep on @p k against the scalar
 * reference: eq masks and whole-set partial masks under all four
 * transforms, each at several associativities, at misaligned plane
 * offsets and with validity bits set above the last way.
 * @return true when every vector matches; on
 * mismatch, false with a one-line reason in @p why (when non-null).
 */
bool kernelSelfCheck(const LookupKernels &k, std::string *why);

/**
 * The dispatch decision, as a pure function (unit-testable without
 * process-global state): pick from @p registered (preference order,
 * as from registeredKernels()) honoring @p env (the ASSOC_KERNELS
 * value, may be null), self-checking every candidate and falling
 * back — never failing, since the scalar reference always passes
 * against itself. @p reason receives a one-line explanation.
 */
const LookupKernels &
chooseKernels(const char *env,
              const std::vector<const LookupKernels *> &registered,
              std::string *reason);

/**
 * The table every tag compare dispatches through,
 * selected once at first use (thread-safe) and logged via warn()
 * when the choice involved a fallback. Override per-process with
 * ASSOC_KERNELS=scalar|swar|avx2.
 */
const LookupKernels &activeKernels();

/** Why activeKernels() picked what it picked (for tools/tests). */
const std::string &kernelDispatchReason();

/**
 * Temporarily force activeKernels() to a specific table (tests:
 * the equivalence suite runs every strategy under every table).
 * Not thread-safe against concurrent lookups; restore on scope
 * exit.
 */
class ScopedKernelOverride
{
  public:
    explicit ScopedKernelOverride(const LookupKernels &k);
    ~ScopedKernelOverride();

    ScopedKernelOverride(const ScopedKernelOverride &) = delete;
    ScopedKernelOverride &
    operator=(const ScopedKernelOverride &) = delete;

  private:
    const LookupKernels *saved_;
};

} // namespace core
} // namespace assoc

#endif // ASSOC_CORE_KERNELS_H
