/**
 * @file
 * Behavioural model of one traced process (or the operating
 * system): the building block of the synthetic ATUM-like trace.
 *
 * Each process emits a mix of instruction fetches (sequential runs
 * with loop-back / call / return control transfers over a small set
 * of functions), stack references (tight locality around the call
 * depth) and heap references (move-to-front reuse with a mixed
 * geometric + Zipf stack-distance distribution, plus footprint
 * growth). All randomness comes from externally supplied PCG32
 * streams, so traces are bit-reproducible.
 */

#ifndef ASSOC_TRACE_PROCESS_MODEL_H
#define ASSOC_TRACE_PROCESS_MODEL_H

#include <cstdint>
#include <vector>

#include "trace/memref.h"
#include "util/rng.h"

namespace assoc {
namespace trace {

/** Tunable parameters of a single process's reference behaviour. */
struct ProcessParams
{
    // Defaults are calibrated (see tests/integration/
    // test_calibration.cc) so the Table 3 level-one caches land
    // near the paper's miss ratios: 0.1181 (4K-16), 0.0657
    // (16K-16), 0.0513 (16K-32).

    /** Fraction of references that are instruction fetches. */
    double ifetch_fraction = 0.55;
    /** Fraction of data references that are writes. */
    double write_fraction = 0.22;
    /** Fraction of data references that go to the stack. */
    double stack_fraction = 0.28;

    /** Per-ifetch probability of a control transfer. */
    double jump_prob = 0.05;
    /** Number of distinct functions in the code region. */
    unsigned functions = 24;
    /** Bytes per function (sequential fetch region). */
    unsigned function_bytes = 512;

    /** Heap: probability a heap reference touches a new block. */
    double new_block_prob = 0.015;
    /** Heap reuse: probability of a short (geometric) distance. */
    double short_reuse_prob = 0.92;
    /** Geometric parameter for short reuse distances. */
    double geom_p = 0.35;
    /** Zipf exponent for long-tail reuse distances. */
    double zipf_theta = 1.10;
    /** Heap allocation granularity in bytes (power of two). */
    unsigned heap_block_bytes = 64;
    /** Contiguous heap blocks allocated per arena chunk before the
     *  allocator jumps to a fresh random chunk. Scattered chunks
     *  mimic the sparse virtual layouts of real processes and give
     *  the stored tags the bit entropy the partial-compare scheme's
     *  hashing relies on. */
    unsigned chunk_blocks = 32;
};

/**
 * One process. Owns only its own reference-generation state; the
 * caller owns scheduling (when this process runs) and the RNG.
 */
class ProcessModel
{
  public:
    /**
     * @param pid process id stamped into emitted references.
     * @param base virtual base address of this process's address
     *        space (distinct high bits per process reproduce the
     *        skewed tag-bit distributions of real virtual traces).
     * @param params behaviour knobs.
     * @param seed process-private RNG seed.
     */
    ProcessModel(std::uint8_t pid, Addr base, const ProcessParams &params,
                 std::uint64_t seed);

    /** Emit the next reference of this process. */
    MemRef nextRef();

    /** Number of distinct heap blocks touched so far. */
    std::size_t heapFootprintBlocks() const { return heap_blocks_.size(); }

    /** The process id. */
    std::uint8_t pid() const { return pid_; }

  private:
    MemRef instructionRef();
    MemRef dataRef();
    Addr heapAddr();
    Addr stackAddr();
    void jump();

    std::uint8_t pid_;
    Addr base_;
    ProcessParams params_;
    Pcg32 rng_;
    ZipfSampler zipf_;

    // One geometric parameter per call site (log1p(-p) taken once).
    Geometric loop_span_{0.10};   ///< backward-branch span, in words
    Geometric hot_pick_{0.5};     ///< position in the hot-function list
    Geometric stack_back_{0.15};  ///< words below the frame base
    Geometric reuse_dist_;        ///< heap reuse distance (geom_p)
    Geometric word_offset_{0.45}; ///< word within a heap block

    // --- instruction state ---
    Addr pc_;                       ///< current fetch address
    Addr func_start_;               ///< start of current function
    std::vector<Addr> ret_stack_;   ///< call/return stack (PCs)
    std::vector<std::uint32_t> hot_funcs_; ///< MTF list of function ids

    // --- data state ---
    unsigned call_depth_ = 4;       ///< drives stack address locality
    std::vector<Addr> heap_blocks_; ///< MTF list of touched heap blocks
    Addr chunk_base_ = 0;           ///< current allocation chunk
    unsigned chunk_used_ = 0;       ///< blocks used in the chunk
    std::vector<Addr> func_addr_;   ///< scattered function addresses
};

} // namespace trace
} // namespace assoc

#endif // ASSOC_TRACE_PROCESS_MODEL_H
